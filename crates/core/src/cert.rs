//! Certificates and receipts (§2.1 of the paper).
//!
//! - A **file certificate** authorizes an insertion: "contains the fileId,
//!   its replication factor k, the salt, the insertion date and a
//!   cryptographic hash of the file's content ... signed by the file's
//!   owner" (by the owner's smartcard).
//! - A **store receipt** proves a node stored a copy: "allows the client to
//!   verify that k copies of the file have been created on nodes with
//!   adjacent nodeIds".
//! - A **reclaim certificate/receipt** pair authorizes and acknowledges
//!   storage reclamation.
//!
//! Every certificate embeds the issuing smartcard's broker-signed
//! credential ([`CardCert`]), so any node can verify the chain
//! broker → card → certificate offline.

use crate::fileid::{ContentRef, FileId};
use past_crypto::{AnchorKey, Digest256, PublicKey, Signature};
use std::sync::Arc;

/// A smartcard credential: the card's public key signed by its broker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CardCert {
    /// The card's public key.
    pub card_key: PublicKey,
    /// The issuing broker's public key.
    pub broker_key: PublicKey,
    /// Broker signature over the card key.
    pub broker_sig: Signature,
}

impl CardCert {
    /// Message the broker signs when certifying a card.
    pub fn message(card_key: &PublicKey) -> Vec<u8> {
        let mut m = b"past-card-cert-v1".to_vec();
        m.extend_from_slice(&card_key.to_bytes());
        m
    }

    /// Verifies the broker's signature (against the expected broker key).
    pub fn verify(&self, broker: &AnchorKey) -> bool {
        self.broker_key == broker.key()
            && broker.verify(&Self::message(&self.card_key), &self.broker_sig)
    }
}

/// A signed authorization to insert one file.
///
/// Equality compares every signed field (signatures included), so two
/// equal certificates are necessarily the same issuance — `inserted_at`
/// and the signature distinguish a retransmitted insert from a fresh
/// insert of the same file.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FileCertificate {
    /// The file's 160-bit identifier.
    pub file_id: FileId,
    /// SHA-256 of the file contents.
    pub content_hash: Digest256,
    /// Content length in bytes.
    pub size: u64,
    /// Replication factor `k`.
    pub replication: u8,
    /// The salt used in fileId derivation (re-salting implements file
    /// diversion).
    pub salt: u64,
    /// Insertion date (simulated microseconds).
    pub inserted_at: u64,
    /// The owner card's credential.
    pub owner: CardCert,
    /// The owner card's signature over the fields above.
    pub signature: Signature,
}

impl FileCertificate {
    /// Canonical byte encoding of the signed fields.
    pub fn message(
        file_id: &FileId,
        content_hash: &Digest256,
        size: u64,
        replication: u8,
        salt: u64,
        inserted_at: u64,
    ) -> Vec<u8> {
        let mut m = b"past-file-cert-v1".to_vec();
        m.extend_from_slice(file_id.as_bytes());
        m.extend_from_slice(&content_hash.0);
        m.extend_from_slice(&size.to_be_bytes());
        m.push(replication);
        m.extend_from_slice(&salt.to_be_bytes());
        m.extend_from_slice(&inserted_at.to_be_bytes());
        m
    }

    /// The content this certificate commits to.
    pub fn content(&self) -> ContentRef {
        ContentRef {
            hash: self.content_hash,
            size: self.size,
        }
    }

    /// Verifies the full chain: broker → owner card → certificate.
    pub fn verify(&self, broker: &AnchorKey) -> bool {
        self.owner.verify(broker)
            && self.owner.card_key.verify(
                &Self::message(
                    &self.file_id,
                    &self.content_hash,
                    self.size,
                    self.replication,
                    self.salt,
                    self.inserted_at,
                ),
                &self.signature,
            )
    }
}

/// A file certificate as a node holds and forwards it: one immutable
/// allocation per issuance, shared by the replicas, cache entries and
/// messages that carry it (§2.1 returns the certificate "along with the
/// file", so one issuance is held on every replica and cache).
///
/// Sharing saves copies, never checks: nodes model separate machines, so
/// a receiver verifies what it receives, and nothing about a check is
/// recorded on the allocation. The wire form is the certificate's own.
pub type SharedCert = Arc<FileCertificate>;

/// A plain certificate becomes shared by copying it into a fresh
/// allocation, so the store and cache take `impl Into<SharedCert>`:
/// a handle is kept as it is, a value or a reference is wrapped.
impl From<&FileCertificate> for SharedCert {
    fn from(cert: &FileCertificate) -> SharedCert {
        Arc::new(*cert)
    }
}

/// This holder's share of a shared certificate's heap: the allocation
/// split evenly over its handles, so a sum over every holder counts it
/// once. Handles in messages still in flight take a share too, so the
/// sum over stores and caches errs low.
pub(crate) fn cert_share(cert: &SharedCert) -> usize {
    std::mem::size_of::<FileCertificate>() / Arc::strong_count(cert)
}

/// A signed acknowledgment that a node stored one copy of a file.
#[derive(Clone, Copy, Debug)]
pub struct StoreReceipt {
    /// The stored file.
    pub file_id: FileId,
    /// Bytes stored (the file size; 0 for an already-present copy).
    pub stored: u64,
    /// Whether the copy was stored under replica diversion.
    pub diverted: bool,
    /// The storing node card's credential.
    pub storer: CardCert,
    /// The storing card's signature.
    pub signature: Signature,
}

impl StoreReceipt {
    /// Canonical byte encoding of the signed fields.
    pub fn message(file_id: &FileId, stored: u64, diverted: bool) -> Vec<u8> {
        let mut m = b"past-store-receipt-v1".to_vec();
        m.extend_from_slice(file_id.as_bytes());
        m.extend_from_slice(&stored.to_be_bytes());
        m.push(diverted as u8);
        m
    }

    /// Verifies the chain broker → storer card → receipt.
    pub fn verify(&self, broker: &AnchorKey) -> bool {
        self.storer.verify(broker)
            && self.storer.card_key.verify(
                &Self::message(&self.file_id, self.stored, self.diverted),
                &self.signature,
            )
    }
}

/// A signed authorization to reclaim a file's storage.
#[derive(Clone, Copy, Debug)]
pub struct ReclaimCertificate {
    /// The file to reclaim.
    pub file_id: FileId,
    /// The owner card's credential (must match the file certificate's).
    pub owner: CardCert,
    /// The owner card's signature.
    pub signature: Signature,
}

impl ReclaimCertificate {
    /// Canonical byte encoding of the signed fields.
    pub fn message(file_id: &FileId) -> Vec<u8> {
        let mut m = b"past-reclaim-cert-v1".to_vec();
        m.extend_from_slice(file_id.as_bytes());
        m
    }

    /// Verifies the chain broker → owner card → certificate.
    pub fn verify(&self, broker: &AnchorKey) -> bool {
        self.owner.verify(broker)
            && self
                .owner
                .card_key
                .verify(&Self::message(&self.file_id), &self.signature)
    }
}

/// A signed acknowledgment of reclaimed storage ("contains the reclaim
/// certificate and the amount of storage reclaimed").
#[derive(Clone, Copy, Debug)]
pub struct ReclaimReceipt {
    /// The reclaimed file.
    pub file_id: FileId,
    /// Bytes freed at the issuing node.
    pub freed: u64,
    /// The storing node card's credential.
    pub storer: CardCert,
    /// The storing card's signature.
    pub signature: Signature,
}

impl ReclaimReceipt {
    /// Canonical byte encoding of the signed fields.
    pub fn message(file_id: &FileId, freed: u64) -> Vec<u8> {
        let mut m = b"past-reclaim-receipt-v1".to_vec();
        m.extend_from_slice(file_id.as_bytes());
        m.extend_from_slice(&freed.to_be_bytes());
        m
    }

    /// Verifies the chain broker → storer card → receipt.
    pub fn verify(&self, broker: &AnchorKey) -> bool {
        self.storer.verify(broker)
            && self
                .storer
                .card_key
                .verify(&Self::message(&self.file_id, self.freed), &self.signature)
    }
}

#[cfg(test)]
mod tests {
    use crate::broker::Broker;
    use crate::fileid::ContentRef;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn file_certificate_chain_verifies() {
        let mut broker = Broker::new(b"broker");
        let mut card = broker.issue_card(b"user", 10 << 20, 0);
        let content = ContentRef::from_bytes(b"payload");
        let cert = card
            .issue_file_certificate("f", &content, 3, 0, 42)
            .unwrap();
        assert!(cert.verify(&broker.public()));
    }

    #[test]
    fn known_answer_certificate_chain() {
        // Recorded before verification became a double exponentiation:
        // issuance is byte-identical and the chain still verifies.
        let mut broker = Broker::new(b"kat-broker");
        let mut card = broker.issue_card(b"kat-user", 10 << 20, 0);
        let content = ContentRef::from_bytes(b"kat-payload");
        let cert = card
            .issue_file_certificate("kat-file", &content, 3, 7, 42)
            .unwrap();
        assert_eq!(
            hex(&broker.public().key().to_bytes()),
            "2082c92f76756ea9bd83bcd2353fee1bb148391f1c9b0102006418f31575b49f"
        );
        assert_eq!(
            hex(&cert.owner.card_key.to_bytes()),
            "611e5e1029d45daebbd5a52a204ebe7a3edde0e72ac8a3e27132f615b41be99d"
        );
        assert_eq!(
            hex(&cert.owner.broker_sig.to_bytes()),
            "44051a0d1e77c09ede0709d86403d4e4d298d1df490e061626509fcbfafa3598\
             0143a985a3b03f9fb8d5fee3403ba1a5a597a4c3e73e33b405a7a63414ac451c"
        );
        assert_eq!(
            hex(cert.file_id.as_bytes()),
            "a0bb9511b4dd57e64a22049fa09ff12b2ca8958a"
        );
        assert_eq!(
            hex(&cert.signature.to_bytes()),
            "3aa184206abcc9d1b4038ab45922af75c4c4ab518a64ce28dcacc2ce5787ee3c\
             166305a65a51f2996c78e110de2cae6a669cc41cab4d7b6b3a8af9cb21df5bb8"
        );
        assert!(cert.verify(&broker.public()));
    }

    #[test]
    fn known_answer_receipts() {
        // Recorded on the window-4 `powmod` signer, before `g` got a
        // fixed-base table: the storing node's card credential, its store
        // receipt and its reclaim receipt are byte-identical under any
        // change to how `g^k` is computed.
        let mut broker = Broker::new(b"kat-broker");
        let mut owner = broker.issue_card(b"kat-user", 10 << 20, 0);
        let storer = broker.issue_card(b"kat-node", 0, 1 << 30);
        let content = ContentRef::from_bytes(b"kat-payload");
        let cert = owner
            .issue_file_certificate("kat-file", &content, 3, 7, 42)
            .unwrap();
        let credential = storer.credential();
        assert_eq!(
            hex(&credential.card_key.to_bytes()),
            "34dcb2763d421863fef62123f81d24eb080ab42910e410e6ac6aa4430ffbc475"
        );
        assert_eq!(
            hex(&credential.broker_sig.to_bytes()),
            "232dfb95c2a1579e45dd5e5eaed94eada3629c0035af7b2c63e337f0141fe26b\
             38fbb91027b380ef3f403c8db200f98f10c28239e63abdde0277b11fb6a89e67"
        );
        let stored = storer.issue_store_receipt(&cert.file_id, content.size, true);
        assert_eq!(
            hex(&stored.signature.to_bytes()),
            "24f09f18b79ecae14f0c9690f2d239a44df99eda06bae26b452219af39b7e91a\
             2d97fc6322c67439d2720c804e962cdb8ddbfc6e2936ad5f13c2aba782a75277"
        );
        let reclaim = owner.issue_reclaim_certificate(&cert.file_id);
        assert_eq!(
            hex(&reclaim.signature.to_bytes()),
            "60d37bf9f3a64a76049274b8ddb790d9d9862a7488b378c00049407ef9721da1\
             2a6b1f21ebef4e10f9aa6778dcc82c024f778ed26f32fe1b1f06966e5c23ae6f"
        );
        let freed = storer.issue_reclaim_receipt(&cert.file_id, content.size);
        assert_eq!(
            hex(&freed.signature.to_bytes()),
            "7a21f2f6a5e54718680f22122a4d06f447b32c89af526daa83777161c22ab828\
             32e359c9735f0b090da7b2adcdfec37dadaed7526837fb0293d6d3412e899e8f"
        );
        assert!(credential.verify(&broker.public()));
        assert!(stored.verify(&broker.public()));
        assert!(reclaim.verify(&broker.public()));
        assert!(freed.verify(&broker.public()));
    }

    #[test]
    fn tampered_certificate_rejected() {
        let mut broker = Broker::new(b"broker");
        let mut card = broker.issue_card(b"user", 10 << 20, 0);
        let content = ContentRef::from_bytes(b"payload");
        let mut cert = card
            .issue_file_certificate("f", &content, 3, 0, 42)
            .unwrap();
        cert.size += 1;
        assert!(!cert.verify(&broker.public()));
    }

    #[test]
    fn wrong_broker_rejected() {
        let mut broker = Broker::new(b"broker");
        let other = Broker::new(b"other");
        let mut card = broker.issue_card(b"user", 10 << 20, 0);
        let content = ContentRef::from_bytes(b"payload");
        let cert = card
            .issue_file_certificate("f", &content, 3, 0, 42)
            .unwrap();
        assert!(!cert.verify(&other.public()));
    }

    #[test]
    fn uncertified_card_rejected() {
        // A self-made card without broker certification cannot produce
        // verifiable certificates.
        let mut broker = Broker::new(b"broker");
        let card = broker.issue_card(b"user", 10 << 20, 0);
        let rogue_key = past_crypto::KeyPair::from_seed(b"rogue");
        let mut cc = card.credential();
        cc.card_key = rogue_key.public;
        assert!(!cc.verify(&broker.public()));
    }

    #[test]
    fn receipts_verify_and_detect_tampering() {
        let mut broker = Broker::new(b"broker");
        let mut owner = broker.issue_card(b"user", 10 << 20, 0);
        let storer = broker.issue_card(b"node", 0, 1 << 30);
        let content = ContentRef::from_bytes(b"x");
        let cert = owner
            .issue_file_certificate("f", &content, 1, 0, 1)
            .unwrap();
        let receipt = storer.issue_store_receipt(&cert.file_id, content.size, false);
        assert!(receipt.verify(&broker.public()));
        let mut bad = receipt;
        bad.stored += 7;
        assert!(!bad.verify(&broker.public()));

        let rcert = owner.issue_reclaim_certificate(&cert.file_id);
        assert!(rcert.verify(&broker.public()));
        let rr = storer.issue_reclaim_receipt(&cert.file_id, content.size);
        assert!(rr.verify(&broker.public()));
        let mut bad = rr;
        bad.freed = 0;
        assert!(!bad.verify(&broker.public()));
    }
}
