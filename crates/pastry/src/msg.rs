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
    use past_wire::{DecodeError, Message, WIRE_VERSION};

    /// The frame `[WIRE_VERSION, kind]` followed by zero bytes. Every
    /// field then reads as zero, empty or `None`, so an assigned kind
    /// decodes to its smallest message; no sample list is restated here.
    fn decode_zeroed<P: Clone + PayloadSize>(kind: u8) -> Result<PastryMsg<P>, DecodeError> {
        let mut frame = vec![0u8; 256];
        frame[..2].copy_from_slice(&[WIRE_VERSION, kind]);
        PastryMsg::<P>::decode(&frame).map(|(m, _)| m)
    }

    /// Exactly the kind bytes below `KINDS.len()` decode, each to the
    /// message whose `kind_id` is that byte and whose label is its
    /// `KINDS` entry: the kind ids are a permutation of the table.
    #[test]
    fn kind_ids_are_a_permutation_of_the_kinds_table() {
        let kinds = PastryMsg::<u32>::KINDS;
        for kind in 0..=u8::MAX {
            match decode_zeroed::<u32>(kind) {
                Ok(m) => {
                    assert_eq!(m.kind_id(), usize::from(kind));
                    assert_eq!(m.kind(), kinds[usize::from(kind)]);
                }
                Err(e) => {
                    assert!(usize::from(kind) >= kinds.len(), "kind {kind}: {e:?}");
                    assert_eq!(e, DecodeError::UnknownKind(kind));
                }
            }
        }
    }

    /// `fieldless` answers exactly the kinds whose frame is the bare
    /// `[version, kind]` header, and rebuilds the same frame: the
    /// engine carries such a message as its kind id alone, so a field
    /// added to one of them must fail here rather than vanish in flight.
    /// tests/wire.rs checks the PAST payload type the same way.
    fn assert_fieldless_matches_the_codec<P: Clone + PayloadSize>() {
        for kind in 0..PastryMsg::<P>::KINDS.len() {
            let m = decode_zeroed::<P>(kind as u8).expect("an assigned kind decodes");
            let frame = m.to_wire();
            let rebuilt = PastryMsg::<P>::fieldless(kind);
            assert_eq!(
                rebuilt.is_some(),
                frame.len() == 2,
                "{}: fieldless disagrees with the {}-byte frame",
                m.kind(),
                frame.len()
            );
            if let Some(r) = rebuilt {
                assert_eq!(r.kind_id(), kind);
                assert_eq!(r.to_wire(), frame, "{}: rebuilt frame differs", m.kind());
            }
        }
    }

    #[test]
    fn fieldless_kinds_are_exactly_the_frames_without_a_body() {
        assert_fieldless_matches_the_codec::<()>();
        assert_fieldless_matches_the_codec::<u32>();
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
