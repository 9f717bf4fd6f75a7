//! Pastry wire messages.

// No wildcard arms: a new variant must be named wherever messages are
// matched, or it silently escapes the codec, kind ids and trace attribution.
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

use crate::handle::NodeHandle;
use crate::id::Id;
use past_wire::{Addr, OpId, Wire};

/// A routed application message in flight.
#[derive(Clone, Debug)]
pub struct RouteEnvelope<P> {
    /// Destination key (a fileId's 128 most-significant bits, or a nodeId).
    pub key: Id,
    /// Application payload.
    pub payload: P,
    /// Address of the node that originated the route.
    pub origin: Addr,
    /// Overlay hops taken so far (incremented on each forward).
    pub hops: u32,
    /// Accumulated network delay along the path, microseconds.
    pub path_us: u64,
}

/// The body of [`PastryMsg::JoinRequest`].
#[derive(Clone, Debug)]
pub struct JoinRequest {
    /// The joining node.
    pub joiner: NodeHandle,
    /// Routing-table entries collected along the path ("the i-th row
    /// of the routing table from the i-th node encountered").
    pub rows: Vec<NodeHandle>,
    /// Highest row index already contributed.
    pub rows_done: u16,
    /// Hops taken so far.
    pub hops: u32,
}

/// The body of [`PastryMsg::JoinReply`].
#[derive(Clone, Debug)]
pub struct JoinReply {
    /// The numerically closest existing node.
    pub z: NodeHandle,
    /// Entries collected along the join route.
    pub rows: Vec<NodeHandle>,
    /// Z's leaf set (plus Z itself).
    pub leaf: Vec<NodeHandle>,
    /// Join route length.
    pub hops: u32,
}

/// The Pastry protocol message set, generic over the application payload.
///
/// The two join bodies are boxed: they are the only variants wider than
/// a routed envelope, and every in-flight message that carries fields
/// pays for the widest variant in its arena slot. The fieldless kinds
/// ([`Message::fieldless`](past_wire::Message::fieldless): the
/// neighbourhood and leaf requests, the heartbeat and its ack — a
/// stabilize round's whole burst) ride in the engine's event record and
/// take no slot. Its codec and kind table are one `wire_enum!` line per
/// variant in `crate::wire`.
#[derive(Clone, Debug)]
pub enum PastryMsg<P> {
    /// A routed application message.
    Route(RouteEnvelope<P>),
    /// A join request being routed toward the joiner's id, accumulating
    /// routing-table rows along the path.
    JoinRequest(Box<JoinRequest>),
    /// Z's answer to the joiner: collected rows plus Z's leaf set.
    JoinReply(Box<JoinReply>),
    /// Ask a nearby node for its neighborhood set.
    NeighborhoodRequest,
    /// The neighborhood set (plus the replying node).
    NeighborhoodReply {
        /// Members of the replier's neighborhood set.
        members: Vec<NodeHandle>,
    },
    /// A newly joined node announcing itself so that "interested nodes
    /// that need to know of its arrival" update their state.
    Announce {
        /// The announcing node.
        from: NodeHandle,
    },
    /// Ask for the receiver's leaf set (leaf-set repair).
    LeafRequest,
    /// The receiver's leaf set (plus itself).
    LeafReply {
        /// Members of the replier's leaf set.
        members: Vec<NodeHandle>,
    },
    /// Ask for the receiver's routing-table row (table improvement).
    RowRequest {
        /// Row index requested.
        row: u16,
    },
    /// Entries of the requested row.
    RowReply {
        /// Populated entries of the row.
        entries: Vec<NodeHandle>,
    },
    /// Ask for a replacement routing-table entry (lazy repair).
    RepairRequest {
        /// Row of the vacated slot.
        row: u16,
        /// Column of the vacated slot.
        col: u16,
    },
    /// A replacement entry, if the replier has one.
    RepairReply {
        /// The replier's entry for that slot.
        entry: Option<NodeHandle>,
    },
    /// Leaf-set liveness probe.
    Heartbeat,
    /// Probe acknowledgment.
    HeartbeatAck,
    /// A direct (non-routed) application message.
    AppDirect {
        /// Application payload.
        payload: P,
    },
}

/// Application payload contract: a byte codec plus trace attribution.
///
/// `Wire` is a supertrait so that a `PastryMsg<P>` frame (and with it
/// the engine's bandwidth accounting) always has an exact encoded
/// length.
pub trait PayloadSize: Wire {
    /// The client operation this payload belongs to, for causal trace
    /// attribution (default: none). Carried up into
    /// [`Message::op_id`](past_wire::Message::op_id) by both routed and
    /// direct Pastry frames.
    fn op_id(&self) -> OpId {
        OpId::NONE
    }
}

impl PayloadSize for () {}
impl PayloadSize for u32 {}
impl PayloadSize for u64 {}

#[cfg(test)]
mod tests {
    use super::*;
    use past_wire::Message;

    /// One constructed sample of every variant, in `KINDS` order; a
    /// variant without one fails the permutation test below. The two
    /// variants that carry an application payload carry `payload`.
    fn all_variants<P: Clone>(payload: P) -> Vec<PastryMsg<P>> {
        let h = NodeHandle::new(Id(1), 0);
        vec![
            PastryMsg::Route(RouteEnvelope {
                key: Id(1),
                payload: payload.clone(),
                origin: 0,
                hops: 0,
                path_us: 0,
            }),
            PastryMsg::JoinRequest(Box::new(JoinRequest {
                joiner: h,
                rows: vec![],
                rows_done: 0,
                hops: 0,
            })),
            PastryMsg::JoinReply(Box::new(JoinReply {
                z: h,
                rows: vec![],
                leaf: vec![],
                hops: 0,
            })),
            PastryMsg::NeighborhoodRequest,
            PastryMsg::NeighborhoodReply { members: vec![] },
            PastryMsg::Announce { from: h },
            PastryMsg::LeafRequest,
            PastryMsg::LeafReply { members: vec![] },
            PastryMsg::RowRequest { row: 0 },
            PastryMsg::RowReply { entries: vec![] },
            PastryMsg::RepairRequest { row: 0, col: 0 },
            PastryMsg::RepairReply { entry: None },
            PastryMsg::Heartbeat,
            PastryMsg::HeartbeatAck,
            PastryMsg::AppDirect { payload },
        ]
    }

    /// The samples' kind ids are a permutation of the `KINDS` indices,
    /// so every kind is sampled once and the tests below see them all.
    #[test]
    fn kind_ids_are_a_permutation_of_the_kinds_table() {
        let samples = all_variants(7u32);
        assert_eq!(samples.len(), PastryMsg::<u32>::KINDS.len());
        let mut seen = vec![false; PastryMsg::<u32>::KINDS.len()];
        for m in &samples {
            let id = m.kind_id();
            assert!(id < seen.len(), "kind_id {id} out of KINDS range");
            assert!(!seen[id], "kind_id {id} assigned twice");
            seen[id] = true;
            assert_eq!(m.kind(), PastryMsg::<u32>::KINDS[id]);
        }
        assert!(
            seen.iter().all(|&s| s),
            "every KINDS entry must be reachable"
        );
    }

    #[test]
    fn only_app_traffic_carries_an_op_id() {
        for m in all_variants(7u32) {
            assert_eq!(m.op_id(), OpId::NONE, "u32 payloads carry no op id");
        }
    }

    /// `fieldless` answers exactly the kinds whose frame is the bare
    /// `[version, kind]` header, and rebuilds the same frame: the
    /// engine carries such a message as its kind id alone, so a field
    /// added to one of them must fail here rather than vanish in flight.
    /// tests/wire.rs checks the PAST payload type the same way.
    fn assert_fieldless_matches_the_codec<P: Clone + PayloadSize>(samples: Vec<PastryMsg<P>>) {
        for m in samples {
            let frame = m.to_wire();
            let rebuilt = PastryMsg::<P>::fieldless(m.kind_id());
            assert_eq!(
                rebuilt.is_some(),
                frame.len() == 2,
                "{}: fieldless disagrees with the {}-byte frame",
                m.kind(),
                frame.len()
            );
            if let Some(r) = rebuilt {
                assert_eq!(r.kind_id(), m.kind_id());
                assert_eq!(r.to_wire(), frame, "{}: rebuilt frame differs", m.kind());
            }
        }
    }

    #[test]
    fn fieldless_kinds_are_exactly_the_frames_without_a_body() {
        assert_fieldless_matches_the_codec(all_variants(()));
        assert_fieldless_matches_the_codec(all_variants(7u32));
    }

    /// Every in-flight message that carries fields occupies an arena
    /// slot of this size.
    #[test]
    fn arena_slot_stays_within_64_bytes() {
        assert!(std::mem::size_of::<PastryMsg<()>>() <= 64);
    }

    #[test]
    fn wire_size_grows_with_contents() {
        let small: PastryMsg<u32> = PastryMsg::LeafReply { members: vec![] };
        let big: PastryMsg<u32> = PastryMsg::LeafReply {
            members: vec![NodeHandle::new(Id(0), 0); 16],
        };
        assert!(big.wire_size() > small.wire_size());
    }
}
