//! Byte-level codec for the Pastry message set (DESIGN.md §13.2).
//!
//! Frame layout: `[version:1][kind:1]` (the kind byte is `kind_id()`),
//! then the variant's fields in the order `encode` writes them (for the
//! structs, the order their `wire_struct!` line lists), vectors and the
//! payload last — little-endian integers, 24-byte node handles
//! (16-byte id + 8-byte address), `u32` length-prefixed handle vectors.
//! Row/column coordinates travel as `u16` (the id space has at most 128
//! digit rows and `2^b ≤ 256` columns). The application payload `P` is
//! encoded inline by its own [`Wire`] impl; its length is implied by its
//! content, not prefixed.

// No wildcard arms: a new variant must be named wherever messages are
// matched, or it silently escapes the codec, kind ids and trace attribution.
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

use crate::handle::NodeHandle;
use crate::id::Id;
use crate::msg::{JoinReply, JoinRequest, PastryMsg, RouteEnvelope};
use past_wire::{wire_struct, DecodeError, Reader, Sink, Wire, WIRE_VERSION};

wire_struct!(Id { 0 });
wire_struct!(NodeHandle { id, addr });
// Wire order, not declaration order: the payload travels last.
wire_struct!(RouteEnvelope<P> { key, origin, hops, path_us, payload });
wire_struct!(JoinReply {
    z,
    hops,
    rows,
    leaf
});

/// A row, column or row count as the `u16` it travels as.
fn narrow(index: usize) -> u16 {
    debug_assert!(index <= u16::MAX as usize);
    index as u16
}

impl<P: Wire> Wire for PastryMsg<P> {
    const MIN_WIRE_LEN: usize = 2;

    // Inlined into `encoded_len`, the one codec call the simulator makes
    // per send, so that the count stays in a register.
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        out.put(&[WIRE_VERSION, self.kind_id() as u8]);
        match self {
            PastryMsg::Route(env) => env.encode(out),
            PastryMsg::JoinRequest(req) => {
                req.joiner.encode(out);
                narrow(req.rows_done).encode(out);
                req.hops.encode(out);
                req.rows.encode(out);
            }
            PastryMsg::JoinReply(rep) => rep.encode(out),
            PastryMsg::NeighborhoodReply { members } => members.encode(out),
            PastryMsg::Announce { from } => from.encode(out),
            PastryMsg::LeafReply { members } => members.encode(out),
            PastryMsg::RowRequest { row } => narrow(*row).encode(out),
            PastryMsg::RowReply { entries } => entries.encode(out),
            PastryMsg::RepairRequest { row, col } => {
                narrow(*row).encode(out);
                narrow(*col).encode(out);
            }
            PastryMsg::RepairReply { entry } => entry.encode(out),
            PastryMsg::AppDirect { payload } => payload.encode(out),
            PastryMsg::NeighborhoodRequest
            | PastryMsg::LeafRequest
            | PastryMsg::Heartbeat
            | PastryMsg::HeartbeatAck => {}
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<PastryMsg<P>, DecodeError> {
        Ok(match r.kind()? {
            0 => PastryMsg::Route(r.get()?),
            1 => PastryMsg::JoinRequest(Box::new(JoinRequest {
                joiner: r.get()?,
                rows_done: r.get::<u16>()? as usize,
                hops: r.get()?,
                rows: r.get()?,
            })),
            2 => PastryMsg::JoinReply(Box::new(r.get()?)),
            3 => PastryMsg::NeighborhoodRequest,
            4 => PastryMsg::NeighborhoodReply { members: r.get()? },
            5 => PastryMsg::Announce { from: r.get()? },
            6 => PastryMsg::LeafRequest,
            7 => PastryMsg::LeafReply { members: r.get()? },
            8 => PastryMsg::RowRequest {
                row: r.get::<u16>()? as usize,
            },
            9 => PastryMsg::RowReply { entries: r.get()? },
            10 => PastryMsg::RepairRequest {
                row: r.get::<u16>()? as usize,
                col: r.get::<u16>()? as usize,
            },
            11 => PastryMsg::RepairReply { entry: r.get()? },
            12 => PastryMsg::Heartbeat,
            13 => PastryMsg::HeartbeatAck,
            14 => PastryMsg::AppDirect { payload: r.get()? },
            other => return Err(DecodeError::UnknownKind(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
