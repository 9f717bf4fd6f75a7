//! Byte-level codec for the PAST message set (DESIGN.md §13.3).
//!
//! Frame layout mirrors the Pastry codec: `[version:1][kind:1]`, then
//! the variant's fields in declaration order — little-endian integers,
//! `u32` length-prefixed vectors, canonical big-endian crypto material.
//! Certificates and receipts are fixed-size structures (a [`CardCert`]
//! credential is 128 bytes, a [`FileCertificate`] 269, receipts 220/221,
//! a [`ReclaimCertificate`] 212). A [`SharedCert`] is encoded as the
//! certificate it points at, and decoded into a fresh allocation.
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

use crate::cert::{
    CardCert, FileCertificate, ReclaimCertificate, ReclaimReceipt, SharedCert, StoreReceipt,
};
use crate::fileid::{ContentRef, FileId};
use crate::msg::{NackReason, PastMsg};
use past_wire::{DecodeError, Reader, Sink, Wire, WIRE_VERSION};

impl Wire for FileId {
    const MIN_WIRE_LEN: usize = 20;

    fn encode<S: Sink>(&self, out: &mut S) {
        self.0.encode(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<FileId, DecodeError> {
        Ok(FileId(r.get()?))
    }
}

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

impl Wire for CardCert {
    const MIN_WIRE_LEN: usize = 128;

    fn encode<S: Sink>(&self, out: &mut S) {
        self.card_key.encode(out);
        self.broker_key.encode(out);
        self.broker_sig.encode(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<CardCert, DecodeError> {
        Ok(CardCert {
            card_key: r.get()?,
            broker_key: r.get()?,
            broker_sig: r.get()?,
        })
    }
}

impl Wire for FileCertificate {
    const MIN_WIRE_LEN: usize = 269;

    fn encode<S: Sink>(&self, out: &mut S) {
        self.file_id.encode(out);
        self.content_hash.encode(out);
        self.size.encode(out);
        self.replication.encode(out);
        self.salt.encode(out);
        self.inserted_at.encode(out);
        self.owner.encode(out);
        self.signature.encode(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<FileCertificate, DecodeError> {
        Ok(FileCertificate {
            file_id: r.get()?,
            content_hash: r.get()?,
            size: r.get()?,
            replication: r.get()?,
            salt: r.get()?,
            inserted_at: r.get()?,
            owner: r.get()?,
            signature: r.get()?,
        })
    }
}

impl Wire for StoreReceipt {
    const MIN_WIRE_LEN: usize = 221;

    fn encode<S: Sink>(&self, out: &mut S) {
        self.file_id.encode(out);
        self.stored.encode(out);
        self.diverted.encode(out);
        self.storer.encode(out);
        self.signature.encode(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<StoreReceipt, DecodeError> {
        Ok(StoreReceipt {
            file_id: r.get()?,
            stored: r.get()?,
            diverted: r.get()?,
            storer: r.get()?,
            signature: r.get()?,
        })
    }
}

impl Wire for ReclaimCertificate {
    const MIN_WIRE_LEN: usize = 212;

    fn encode<S: Sink>(&self, out: &mut S) {
        self.file_id.encode(out);
        self.owner.encode(out);
        self.signature.encode(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<ReclaimCertificate, DecodeError> {
        Ok(ReclaimCertificate {
            file_id: r.get()?,
            owner: r.get()?,
            signature: r.get()?,
        })
    }
}

impl Wire for ReclaimReceipt {
    const MIN_WIRE_LEN: usize = 220;

    fn encode<S: Sink>(&self, out: &mut S) {
        self.file_id.encode(out);
        self.freed.encode(out);
        self.storer.encode(out);
        self.signature.encode(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<ReclaimReceipt, DecodeError> {
        Ok(ReclaimReceipt {
            file_id: r.get()?,
            freed: r.get()?,
            storer: r.get()?,
            signature: r.get()?,
        })
    }
}

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

impl Wire for PastMsg {
    const MIN_WIRE_LEN: usize = 2;

    // Inlined into `encoded_len`, the one codec call the simulator makes
    // per send, so that the count stays in a register.
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            PastMsg::Insert {
                cert,
                content,
                client,
                op,
            } => {
                out.put(&[WIRE_VERSION, 0]);
                cert.encode(out);
                content.encode(out);
                client.encode(out);
                op.encode(out);
            }
            PastMsg::Lookup {
                file_id,
                client,
                path,
                redirected,
                op,
            } => {
                out.put(&[WIRE_VERSION, 1]);
                file_id.encode(out);
                client.encode(out);
                path.encode(out);
                redirected.encode(out);
                op.encode(out);
            }
            PastMsg::Reclaim { rcert, client, op } => {
                out.put(&[WIRE_VERSION, 2]);
                rcert.encode(out);
                client.encode(out);
                op.encode(out);
            }
            PastMsg::Replicate {
                cert,
                content,
                client,
                op,
            } => {
                out.put(&[WIRE_VERSION, 3]);
                cert.encode(out);
                content.encode(out);
                client.encode(out);
                op.encode(out);
            }
            PastMsg::DivertStore {
                cert,
                content,
                primary,
                client,
                op,
            } => {
                out.put(&[WIRE_VERSION, 4]);
                cert.encode(out);
                content.encode(out);
                primary.encode(out);
                client.encode(out);
                op.encode(out);
            }
            PastMsg::DivertAck { file_id, op } => {
                out.put(&[WIRE_VERSION, 5]);
                file_id.encode(out);
                op.encode(out);
            }
            PastMsg::DivertNack { file_id, op } => {
                out.put(&[WIRE_VERSION, 6]);
                file_id.encode(out);
                op.encode(out);
            }
            PastMsg::StoreAck { receipt, op } => {
                out.put(&[WIRE_VERSION, 7]);
                receipt.encode(out);
                op.encode(out);
            }
            PastMsg::InsertNack {
                file_id,
                reason,
                op,
            } => {
                out.put(&[WIRE_VERSION, 8]);
                file_id.encode(out);
                reason.encode(out);
                op.encode(out);
            }
            PastMsg::LookupHop {
                file_id,
                client,
                path,
                terminal,
                op,
            } => {
                out.put(&[WIRE_VERSION, 9]);
                file_id.encode(out);
                client.encode(out);
                path.encode(out);
                terminal.encode(out);
                op.encode(out);
            }
            PastMsg::FileReply {
                cert,
                from_cache,
                op,
            } => {
                out.put(&[WIRE_VERSION, 10]);
                cert.encode(out);
                from_cache.encode(out);
                op.encode(out);
                out.body(cert.size);
            }
            PastMsg::LookupMiss { file_id, op } => {
                out.put(&[WIRE_VERSION, 11]);
                file_id.encode(out);
                op.encode(out);
            }
            PastMsg::ReclaimFree { rcert, client, op } => {
                out.put(&[WIRE_VERSION, 12]);
                rcert.encode(out);
                client.encode(out);
                op.encode(out);
            }
            PastMsg::ReclaimAck { receipt, op } => {
                out.put(&[WIRE_VERSION, 13]);
                receipt.encode(out);
                op.encode(out);
            }
            PastMsg::ReclaimDenied { file_id, op } => {
                out.put(&[WIRE_VERSION, 14]);
                file_id.encode(out);
                op.encode(out);
            }
            PastMsg::CachePush { cert } => {
                out.put(&[WIRE_VERSION, 15]);
                cert.encode(out);
                out.body(cert.size);
            }
            PastMsg::AuditChallenge { file_id, nonce } => {
                out.put(&[WIRE_VERSION, 16]);
                file_id.encode(out);
                nonce.encode(out);
            }
            PastMsg::AuditProof { file_id, proof } => {
                out.put(&[WIRE_VERSION, 17]);
                file_id.encode(out);
                proof.encode(out);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<PastMsg, DecodeError> {
        Ok(match r.kind()? {
            0 => PastMsg::Insert {
                cert: r.get()?,
                content: r.get()?,
                client: r.get()?,
                op: r.get()?,
            },
            1 => PastMsg::Lookup {
                file_id: r.get()?,
                client: r.get()?,
                path: r.get()?,
                redirected: r.get()?,
                op: r.get()?,
            },
            2 => PastMsg::Reclaim {
                rcert: r.get()?,
                client: r.get()?,
                op: r.get()?,
            },
            3 => PastMsg::Replicate {
                cert: r.get()?,
                content: r.get()?,
                client: r.get()?,
                op: r.get()?,
            },
            4 => PastMsg::DivertStore {
                cert: r.get()?,
                content: r.get()?,
                primary: r.get()?,
                client: r.get()?,
                op: r.get()?,
            },
            5 => PastMsg::DivertAck {
                file_id: r.get()?,
                op: r.get()?,
            },
            6 => PastMsg::DivertNack {
                file_id: r.get()?,
                op: r.get()?,
            },
            7 => PastMsg::StoreAck {
                receipt: r.get()?,
                op: r.get()?,
            },
            8 => PastMsg::InsertNack {
                file_id: r.get()?,
                reason: r.get()?,
                op: r.get()?,
            },
            9 => PastMsg::LookupHop {
                file_id: r.get()?,
                client: r.get()?,
                path: r.get()?,
                terminal: r.get()?,
                op: r.get()?,
            },
            10 => {
                let cert: SharedCert = r.get()?;
                let (from_cache, op) = (r.get()?, r.get()?);
                r.skip_body(cert.size)?;
                PastMsg::FileReply {
                    cert,
                    from_cache,
                    op,
                }
            }
            11 => PastMsg::LookupMiss {
                file_id: r.get()?,
                op: r.get()?,
            },
            12 => PastMsg::ReclaimFree {
                rcert: r.get()?,
                client: r.get()?,
                op: r.get()?,
            },
            13 => PastMsg::ReclaimAck {
                receipt: r.get()?,
                op: r.get()?,
            },
            14 => PastMsg::ReclaimDenied {
                file_id: r.get()?,
                op: r.get()?,
            },
            15 => {
                let cert: SharedCert = r.get()?;
                r.skip_body(cert.size)?;
                PastMsg::CachePush { cert }
            }
            16 => PastMsg::AuditChallenge {
                file_id: r.get()?,
                nonce: r.get()?,
            },
            17 => PastMsg::AuditProof {
                file_id: r.get()?,
                proof: r.get()?,
            },
            other => return Err(DecodeError::UnknownKind(other)),
        })
    }
}

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
