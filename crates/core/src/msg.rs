//! PAST application messages, carried by Pastry as routed or direct
//! payloads.

// No wildcard arms: a new variant must be named wherever messages are
// matched, or it silently escapes the codec, kind ids and trace attribution.
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

use crate::cert::{FileCertificate, ReclaimCertificate, ReclaimReceipt, SharedCert, StoreReceipt};
use crate::fileid::{ContentRef, FileId};
use past_crypto::Digest256;
use past_pastry::PayloadSize;
use past_wire::{Addr, OpId};

/// Why an insertion response was negative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NackReason {
    /// Certificate or content failed verification (fatal for the attempt).
    BadCertificate,
    /// Local policy refused the copy and diversion failed.
    StoreRefused,
    /// The target replica holder is dead.
    TargetDead,
    /// The network has fewer nodes than requested replicas.
    InsufficientNodes,
}

impl NackReason {
    /// Fatal reasons abort the attempt immediately (no point counting the
    /// remaining responses).
    pub fn is_fatal(&self) -> bool {
        matches!(self, NackReason::BadCertificate)
    }
}

/// The PAST protocol message set.
#[derive(Clone, Debug)]
pub enum PastMsg {
    // --- Routed toward the fileId's root -------------------------------
    /// Insert request: certificate plus the content as transferred (the
    /// hash may be corrupted en route; the certificate exposes that). The
    /// root wraps the certificate into a [`SharedCert`] once it checks out;
    /// every message after it carries that handle.
    Insert {
        /// The owner-signed file certificate.
        cert: FileCertificate,
        /// The content as it arrives (subject to en-route corruption).
        content: ContentRef,
        /// The requesting client.
        client: Addr,
        /// The client operation this request belongs to (trace attribution).
        op: OpId,
    },
    /// Lookup request; accumulates the route path for cache placement.
    Lookup {
        /// The requested file.
        file_id: FileId,
        /// The requesting client.
        client: Addr,
        /// Nodes traversed (bounded), nearest-to-client first.
        path: Vec<Addr>,
        /// Set once a covering node has redirected the lookup to its
        /// proximity-nearest replica holder (at most one redirect).
        redirected: bool,
        /// The client operation this request belongs to (trace attribution).
        op: OpId,
    },
    /// Reclaim request.
    Reclaim {
        /// The owner-signed reclaim certificate.
        rcert: ReclaimCertificate,
        /// The requesting client.
        client: Addr,
        /// The client operation this request belongs to (trace attribution).
        op: OpId,
    },

    // --- Direct node-to-node -------------------------------------------
    /// Root → k-set member: store a replica. `client: None` marks
    /// maintenance replication (no receipts expected).
    Replicate {
        /// The file certificate.
        cert: SharedCert,
        /// The content as held by the sender.
        content: ContentRef,
        /// The client awaiting receipts, if any.
        client: Option<Addr>,
        /// The client operation this copy belongs to (none for
        /// maintenance replication).
        op: OpId,
    },
    /// Full primary → leaf neighbor: hold this replica for me
    /// (replica diversion).
    DivertStore {
        /// The file certificate.
        cert: SharedCert,
        /// The content.
        content: ContentRef,
        /// The diverting primary (receives the ack/nack).
        primary: Addr,
        /// The client awaiting a receipt.
        client: Addr,
        /// The client operation this diversion serves.
        op: OpId,
    },
    /// Diversion accepted; sender now holds the replica.
    DivertAck {
        /// The diverted file.
        file_id: FileId,
        /// The client operation the diversion served.
        op: OpId,
    },
    /// Diversion refused.
    DivertNack {
        /// The refused file.
        file_id: FileId,
        /// The client operation the diversion would have served.
        op: OpId,
    },
    /// Storage node → client: copy stored, receipt enclosed.
    StoreAck {
        /// The signed store receipt.
        receipt: StoreReceipt,
        /// The client operation being acknowledged.
        op: OpId,
    },
    /// Storage node → client: copy not stored.
    InsertNack {
        /// The file.
        file_id: FileId,
        /// Why.
        reason: NackReason,
        /// The client operation being refused.
        op: OpId,
    },
    /// Root → replica holder: answer this lookup if you can.
    LookupHop {
        /// The requested file.
        file_id: FileId,
        /// The client awaiting the file.
        client: Addr,
        /// Path recorded by the routed phase.
        path: Vec<Addr>,
        /// Terminal hops answer miss directly; non-terminal ones
        /// (nearest-replica redirects) re-route toward the root instead.
        terminal: bool,
        /// The client operation this hop serves.
        op: OpId,
    },
    /// Storage node → client: the file (certificate stands in for content).
    FileReply {
        /// The certificate, "returned along with the file".
        cert: SharedCert,
        /// Whether a cached copy served the request.
        from_cache: bool,
        /// The client operation being answered.
        op: OpId,
    },
    /// Storage node → client: file not found here.
    LookupMiss {
        /// The file.
        file_id: FileId,
        /// The client operation being answered.
        op: OpId,
    },
    /// Root → k-set member / pointer holder: free this file.
    ReclaimFree {
        /// The reclaim certificate.
        rcert: ReclaimCertificate,
        /// The client awaiting receipts.
        client: Addr,
        /// The client operation this free belongs to (none for
        /// internal quota-pressure reclaims).
        op: OpId,
    },
    /// Storage node → client: storage freed, receipt enclosed.
    ReclaimAck {
        /// The signed reclaim receipt.
        receipt: ReclaimReceipt,
        /// The client operation being acknowledged.
        op: OpId,
    },
    /// Storage node → client: reclaim refused (not the owner).
    ReclaimDenied {
        /// The file.
        file_id: FileId,
        /// The client operation being refused.
        op: OpId,
    },
    /// Push a file into a nearby node's cache (sent to route-path nodes).
    CachePush {
        /// The certificate of the cached file.
        cert: SharedCert,
    },
    /// Random storage audit: prove you hold the file.
    AuditChallenge {
        /// The audited file.
        file_id: FileId,
        /// Fresh challenge nonce.
        nonce: u64,
    },
    /// Audit answer: `None` means "cannot prove".
    AuditProof {
        /// The audited file.
        file_id: FileId,
        /// H(nonce ‖ content), if the prover holds the content.
        proof: Option<Digest256>,
    },
}

impl PayloadSize for PastMsg {
    fn op_id(&self) -> OpId {
        match self {
            PastMsg::Insert { op, .. }
            | PastMsg::Lookup { op, .. }
            | PastMsg::Reclaim { op, .. }
            | PastMsg::Replicate { op, .. }
            | PastMsg::DivertStore { op, .. }
            | PastMsg::DivertAck { op, .. }
            | PastMsg::DivertNack { op, .. }
            | PastMsg::StoreAck { op, .. }
            | PastMsg::InsertNack { op, .. }
            | PastMsg::LookupHop { op, .. }
            | PastMsg::FileReply { op, .. }
            | PastMsg::LookupMiss { op, .. }
            | PastMsg::ReclaimFree { op, .. }
            | PastMsg::ReclaimAck { op, .. }
            | PastMsg::ReclaimDenied { op, .. } => *op,
            // Caching and audits are background maintenance: never part of
            // a client operation.
            PastMsg::CachePush { .. }
            | PastMsg::AuditChallenge { .. }
            | PastMsg::AuditProof { .. } => OpId::NONE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fatality() {
        assert!(NackReason::BadCertificate.is_fatal());
        assert!(!NackReason::StoreRefused.is_fatal());
        assert!(!NackReason::TargetDead.is_fatal());
    }

    #[test]
    fn sizes_track_content() {
        use crate::broker::Broker;
        use past_wire::Wire;
        let mut broker = Broker::new(b"b");
        let mut card = broker.issue_card(b"u", u64::MAX / 2, 0);
        let content = ContentRef::synthetic(0, "f", 10_000);
        let cert = card.issue_file_certificate("f", &content, 1, 0, 0).unwrap();
        let insert = PastMsg::Insert {
            cert,
            content,
            client: 0,
            op: OpId(7),
        };
        assert!(insert.encoded_len() > 10_000);
        assert_eq!(insert.op_id(), OpId(7));
        let miss = PastMsg::LookupMiss {
            file_id: cert.file_id,
            op: OpId::NONE,
        };
        assert!(miss.encoded_len() < 100);
        assert_eq!(miss.op_id(), OpId::NONE);
        let push = PastMsg::CachePush { cert: cert.into() };
        assert_eq!(push.op_id(), OpId::NONE);
    }
}
