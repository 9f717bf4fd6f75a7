//! Byte-level codec for the Pastry message set (DESIGN.md §13.2).
//!
//! Frame layout: `[version:1][kind:1]`, then the variant's fields in the
//! order its line in the `wire_enum!` below lists them (for the structs,
//! the order their `wire_struct!` line lists), vectors and the payload
//! last — little-endian integers, 24-byte node handles (16-byte id +
//! 8-byte address), `u32` length-prefixed handle vectors. Row/column
//! coordinates are `u16` fields (the id space has at most 128 digit rows
//! and `2^b ≤ 256` columns). The application payload `P` is encoded
//! inline by its own [`Wire`](past_wire::Wire) impl; its length is
//! implied by its content, not prefixed. The same line per variant
//! states its kind label and trace attribution: `wire_enum!(message ..)`
//! generates the [`Message`](past_wire::Message) impl, kind table
//! included.

// No wildcard arms: a new variant must be named wherever messages are
// matched, or it silently escapes the codec, kind ids and trace attribution.
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

use crate::handle::NodeHandle;
use crate::id::Id;
use crate::msg::{JoinReply, JoinRequest, PastryMsg, PayloadSize, RouteEnvelope};
use past_wire::{wire_enum, wire_struct};

wire_struct!(Id { 0 });
wire_struct!(NodeHandle { id, addr });
// Wire order, not declaration order: the payload travels last.
wire_struct!(RouteEnvelope<P> { key, origin, hops, path_us, payload });
wire_struct!(JoinRequest {
    joiner,
    rows_done,
    hops,
    rows
});
wire_struct!(JoinReply {
    z,
    hops,
    rows,
    leaf
});

// Only application traffic can belong to a client operation; overlay
// maintenance never does.
wire_enum!(message PastryMsg<P: Clone + PayloadSize> {
    0 "route" => Route { 0: env } op(env.payload.op_id()),
    1 "join_request" => JoinRequest { 0: req },
    2 "join_reply" => JoinReply { 0: rep },
    3 "neighborhood_request" => NeighborhoodRequest {},
    4 "neighborhood_reply" => NeighborhoodReply { members },
    5 "announce" => Announce { from },
    6 "leaf_request" => LeafRequest {},
    7 "leaf_reply" => LeafReply { members },
    8 "row_request" => RowRequest { row },
    9 "row_reply" => RowReply { entries },
    10 "repair_request" => RepairRequest { row, col },
    11 "repair_reply" => RepairReply { entry },
    12 "heartbeat" => Heartbeat {},
    13 "heartbeat_ack" => HeartbeatAck {},
    14 "app_direct" => AppDirect { payload } op(payload.op_id()),
});

#[cfg(test)]
mod tests {
    use super::*;
    use past_wire::{DecodeError, Wire, WIRE_VERSION};

    #[test]
    fn header_and_handle_layout() {
        let h = NodeHandle::new(Id(0x0102), 3);
        let bytes = h.to_wire();
        assert_eq!(bytes.len(), 24);
        // Little-endian id: low bytes first.
        assert_eq!(&bytes[..3], &[0x02, 0x01, 0x00]);
        assert_eq!(bytes[16], 3);

        let msg: PastryMsg<()> = PastryMsg::Heartbeat;
        assert_eq!(msg.to_wire(), vec![WIRE_VERSION, 12]);
    }

    #[test]
    fn unknown_kind_and_bad_version_are_typed_errors() {
        assert_eq!(
            PastryMsg::<()>::decode(&[WIRE_VERSION, 99]).unwrap_err(),
            DecodeError::UnknownKind(99)
        );
        assert_eq!(
            PastryMsg::<()>::decode(&[0, 12]).unwrap_err(),
            DecodeError::BadVersion(0)
        );
        assert_eq!(
            PastryMsg::<()>::decode(&[WIRE_VERSION]).unwrap_err(),
            DecodeError::Truncated
        );
    }
}
