//! Byte-level codec for the baseline overlays (DESIGN.md §13.4).
//!
//! Chord and CAN carry a single lookup message each; both frames lead
//! `[version:1][kind:1]` like the Pastry codec so a mislabeled frame
//! fails with a typed error rather than a misparse. Integers are
//! little-endian; the CAN target point is a `u32` length-prefixed
//! vector of `f64` coordinates (the dimension is a per-experiment
//! constant, but the frame stays self-describing). Each enum's
//! `wire_enum!(message ..)` is its codec and its `Message` impl.

// No wildcard arms: a new variant must be named wherever messages are
// matched, or it silently escapes the codec, kind ids and trace attribution.
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

use crate::can::{CanLookup, CanMsg};
use crate::chord::{ChordLookup, ChordMsg};
use past_wire::{wire_enum, wire_struct};

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

wire_enum!(message ChordMsg {
    0 "chord_lookup" => Lookup { 0: lookup },
});
wire_enum!(message CanMsg {
    0 "can_lookup" => Lookup { 0: lookup },
});

#[cfg(test)]
mod tests {
    use super::*;
    use past_pastry::Id;
    use past_wire::{DecodeError, Wire, WIRE_VERSION};

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
