//! Byte-level codec for the PAST message set (DESIGN.md §13.3).
//!
//! Frame layout mirrors the Pastry codec: `[version:1][kind:1]`, then
//! the variant's fields in the order its
//! [`wire_enum!`](past_wire::wire_enum) line lists them — little-endian
//! integers, `u32` length-prefixed vectors, canonical big-endian crypto
//! material. The `wire_struct!` and `wire_enum!` lines below are the
//! layouts. Certificates and receipts are fixed-size structures whose
//! sizes are computed from those lines (a [`FileCertificate`] is 269
//! bytes; `tests/wire.rs` pins each). A
//! [`SharedCert`](crate::cert::SharedCert) is encoded as the certificate
//! it points at, and decoded into a fresh allocation.
//!
//! **Content bodies.** The simulator never materializes file bytes; a
//! [`ContentRef`] stands in for "the content as transferred". On the
//! wire that stand-in keeps its transfer cost: a `ContentRef` encodes as
//! `hash(32) ‖ size(8)` followed by `size` body bytes (zero filler in
//! the simulator, the actual file in a deployment), and `FileReply` /
//! `CachePush` — where the certificate "is returned along with the
//! file" — append a `cert.size` body the same way. Decoding *skips*
//! bodies without copying, after validating the declared size against
//! the remaining frame, so a hostile size field is a clean
//! [`DecodeError::LengthOverflow`], never an allocation or a panic.

// No wildcard arms: a new variant must be named wherever messages are
// matched, or it silently escapes the codec, kind ids and trace attribution.
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

use crate::cert::{CardCert, FileCertificate, ReclaimCertificate, ReclaimReceipt, StoreReceipt};
use crate::fileid::{ContentRef, FileId};
use crate::msg::{NackReason, PastMsg};
use past_wire::{wire_enum, wire_struct, DecodeError, Reader, Sink, Wire};

wire_struct!(FileId { 0 });

impl Wire for ContentRef {
    const MIN_WIRE_LEN: usize = 40;

    fn encode<S: Sink>(&self, out: &mut S) {
        self.hash.encode(out);
        self.size.encode(out);
        out.body(self.size);
    }

    fn read(r: &mut Reader<'_>) -> Result<ContentRef, DecodeError> {
        let content = ContentRef {
            hash: r.get()?,
            size: r.get()?,
        };
        r.skip_body(content.size)?;
        Ok(content)
    }
}

wire_struct!(CardCert {
    card_key,
    broker_key,
    broker_sig
});
wire_struct!(FileCertificate {
    file_id,
    content_hash,
    size,
    replication,
    salt,
    inserted_at,
    owner,
    signature
});
wire_struct!(StoreReceipt {
    file_id,
    stored,
    diverted,
    storer,
    signature
});
wire_struct!(ReclaimCertificate {
    file_id,
    owner,
    signature
});
wire_struct!(ReclaimReceipt {
    file_id,
    freed,
    storer,
    signature
});

impl Wire for NackReason {
    const MIN_WIRE_LEN: usize = 1;

    fn encode<S: Sink>(&self, out: &mut S) {
        let tag: u8 = match self {
            NackReason::BadCertificate => 0,
            NackReason::StoreRefused => 1,
            NackReason::TargetDead => 2,
            NackReason::InsufficientNodes => 3,
        };
        tag.encode(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<NackReason, DecodeError> {
        Ok(match r.get()? {
            0u8 => NackReason::BadCertificate,
            1 => NackReason::StoreRefused,
            2 => NackReason::TargetDead,
            3 => NackReason::InsufficientNodes,
            tag => return Err(DecodeError::UnknownKind(tag)),
        })
    }
}

wire_enum!(PastMsg {
    0 => Insert { cert, content, client, op },
    1 => Lookup { file_id, client, path, redirected, op },
    2 => Reclaim { rcert, client, op },
    3 => Replicate { cert, content, client, op },
    4 => DivertStore { cert, content, primary, client, op },
    5 => DivertAck { file_id, op },
    6 => DivertNack { file_id, op },
    7 => StoreAck { receipt, op },
    8 => InsertNack { file_id, reason, op },
    9 => LookupHop { file_id, client, path, terminal, op },
    10 => FileReply { cert, from_cache, op } body(cert),
    11 => LookupMiss { file_id, op },
    12 => ReclaimFree { rcert, client, op },
    13 => ReclaimAck { receipt, op },
    14 => ReclaimDenied { file_id, op },
    15 => CachePush { cert } body(cert),
    16 => AuditChallenge { file_id, nonce },
    17 => AuditProof { file_id, proof },
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_body_travels_and_is_skipped() {
        let content = ContentRef::synthetic(1, "f", 100);
        let bytes = content.to_wire();
        assert_eq!(bytes.len(), 140);
        let (back, used) = ContentRef::decode(&bytes).unwrap();
        assert_eq!(back, content);
        assert_eq!(used, 140);
        // A declared size larger than the frame is a typed error.
        assert_eq!(
            ContentRef::decode(&bytes[..50]).unwrap_err(),
            DecodeError::LengthOverflow
        );
    }

    #[test]
    fn nack_reason_rejects_unknown_tags() {
        for (i, r) in [
            NackReason::BadCertificate,
            NackReason::StoreRefused,
            NackReason::TargetDead,
            NackReason::InsufficientNodes,
        ]
        .into_iter()
        .enumerate()
        {
            let bytes = r.to_wire();
            assert_eq!(bytes, vec![i as u8]);
            assert_eq!(NackReason::decode(&bytes).unwrap(), (r, 1));
        }
        assert_eq!(
            NackReason::decode(&[4]).unwrap_err(),
            DecodeError::UnknownKind(4)
        );
    }
}
