//! Byte-level codec for the baseline overlays (DESIGN.md §13.4).
//!
//! Chord and CAN carry a single lookup message each; both frames lead
//! `[version:1][kind:1]` like the Pastry codec so a mislabeled frame
//! fails with a typed error rather than a misparse. Integers are
//! little-endian; the CAN target point is a `u32` length-prefixed
//! vector of `f64` coordinates (the dimension is a per-experiment
//! constant, but the frame stays self-describing).

// No wildcard arms: a new variant must be named wherever messages are
// matched, or it silently escapes the codec, kind ids and trace attribution.
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

use crate::can::{CanLookup, CanMsg};
use crate::chord::{ChordLookup, ChordMsg};
use past_netsim::Message;
use past_wire::{wire_struct, DecodeError, Reader, Sink, Wire, WIRE_VERSION};

wire_struct!(ChordLookup {
    key,
    origin,
    hops,
    path_us,
    terminal
});
wire_struct!(CanLookup {
    target,
    origin,
    hops,
    path_us
});

impl Wire for ChordMsg {
    const MIN_WIRE_LEN: usize = 2;

    fn encode<S: Sink>(&self, out: &mut S) {
        out.put(&[WIRE_VERSION, self.kind_id() as u8]);
        let ChordMsg::Lookup(lk) = self;
        lk.encode(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<ChordMsg, DecodeError> {
        match r.kind()? {
            0 => Ok(ChordMsg::Lookup(r.get()?)),
            other => Err(DecodeError::UnknownKind(other)),
        }
    }
}

impl Wire for CanMsg {
    const MIN_WIRE_LEN: usize = 2;

    fn encode<S: Sink>(&self, out: &mut S) {
        out.put(&[WIRE_VERSION, self.kind_id() as u8]);
        let CanMsg::Lookup(lk) = self;
        lk.encode(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<CanMsg, DecodeError> {
        match r.kind()? {
            0 => Ok(CanMsg::Lookup(r.get()?)),
            other => Err(DecodeError::UnknownKind(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_pastry::Id;

    #[test]
    fn baseline_frames_have_versioned_headers() {
        let msg = ChordMsg::Lookup(ChordLookup {
            key: Id(42),
            origin: 7,
            hops: 3,
            path_us: 99,
            terminal: false,
        });
        let bytes = msg.to_wire();
        assert_eq!(bytes.len() as u64, msg.encoded_len());
        assert_eq!(bytes[0], WIRE_VERSION);
        assert_eq!(
            ChordMsg::decode(&[WIRE_VERSION, 9]).unwrap_err(),
            DecodeError::UnknownKind(9)
        );
        assert_eq!(
            CanMsg::decode(&[0xff, 0]).unwrap_err(),
            DecodeError::BadVersion(0xff)
        );
    }
}
