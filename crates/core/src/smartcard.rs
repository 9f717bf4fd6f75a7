//! Smartcards: quota-enforcing signing tokens (§2.1).
//!
//! "Each PAST node and each user of the system hold a smartcard. A
//! private/public key pair is associated with each card. Each smartcard's
//! public key is signed with the smartcard issuer's private key for
//! certification purposes. The smartcards generate and verify various
//! certificates used during insert and reclaim operations and they
//! maintain storage quotas."
//!
//! Tamper-resistance is modeled structurally: the private key and the
//! quota counters are private fields, and the only mutations are the
//! certificate-issuing methods below — fault-injection experiments can
//! make a *node* misbehave, but never its card.

use crate::cert::{CardCert, FileCertificate, ReclaimCertificate, ReclaimReceipt, StoreReceipt};
use crate::fileid::{ContentRef, FileId};
use past_crypto::{AnchorKey, KeyPair, PublicKey};
use std::collections::BTreeSet;

/// Errors raised by smartcard operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CardError {
    /// The requested insertion would exceed the card's remaining quota.
    QuotaExceeded {
        /// Bytes needed (size × k).
        needed: u64,
        /// Bytes remaining on the card.
        remaining: u64,
    },
    /// A reclaim receipt failed verification or was replayed.
    BadReceipt,
}

impl std::fmt::Display for CardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CardError::QuotaExceeded { needed, remaining } => {
                write!(
                    f,
                    "quota exceeded: need {needed} bytes, {remaining} remaining"
                )
            }
            CardError::BadReceipt => write!(f, "invalid or replayed reclaim receipt"),
        }
    }
}

impl std::error::Error for CardError {}

/// A smartcard: key pair, broker credential, and quota counters.
pub struct Smartcard {
    keys: KeyPair,
    credential: CardCert,
    /// Remaining usage quota in bytes (client side).
    quota_remaining: u64,
    /// Total usage quota as issued.
    quota_issued: u64,
    /// Storage this card's node promises to contribute, in bytes.
    contributed: u64,
    /// Cumulative bytes ever debited by certificate issuance.
    debited_total: u64,
    /// Cumulative bytes ever credited back (reclaims and returned
    /// debits), counting only credit actually applied (the remaining
    /// quota is capped at the issued quota).
    credited_total: u64,
    /// Receipts already credited, to prevent replay: (fileId, storer key).
    credited: BTreeSet<(FileId, [u8; 32])>,
}

impl Smartcard {
    /// Creates a card. Normally called by [`crate::broker::Broker`].
    pub(crate) fn new(
        keys: KeyPair,
        credential: CardCert,
        quota: u64,
        contributed: u64,
    ) -> Smartcard {
        Smartcard {
            keys,
            credential,
            quota_remaining: quota,
            quota_issued: quota,
            contributed,
            debited_total: 0,
            credited_total: 0,
            credited: BTreeSet::new(),
        }
    }

    /// The card's public key.
    pub fn public(&self) -> PublicKey {
        self.keys.public
    }

    /// The broker-signed credential.
    pub fn credential(&self) -> CardCert {
        self.credential
    }

    /// Remaining usage quota in bytes.
    pub fn quota_remaining(&self) -> u64 {
        self.quota_remaining
    }

    /// Quota as originally issued.
    pub fn quota_issued(&self) -> u64 {
        self.quota_issued
    }

    /// Storage contribution promised by this card's node.
    pub fn contributed(&self) -> u64 {
        self.contributed
    }

    /// Cumulative bytes debited by certificate issuance.
    ///
    /// `debited_total − credited_total` is the card's outstanding debit,
    /// which quota conservation (invariant I5) equates with the bytes
    /// currently stored on its behalf plus any in-flight insertions.
    pub fn debited_total(&self) -> u64 {
        self.debited_total
    }

    /// Cumulative bytes credited back (applied credit only).
    pub fn credited_total(&self) -> u64 {
        self.credited_total
    }

    /// Issues a file certificate, debiting `size × k` from the quota.
    ///
    /// "When a file certificate is issued, an amount corresponding to the
    /// file size times the replication factor is debited against the
    /// quota."
    pub fn issue_file_certificate(
        &mut self,
        name: &str,
        content: &ContentRef,
        replication: u8,
        salt: u64,
        now_us: u64,
    ) -> Result<FileCertificate, CardError> {
        let needed = content.size.saturating_mul(replication as u64);
        if needed > self.quota_remaining {
            return Err(CardError::QuotaExceeded {
                needed,
                remaining: self.quota_remaining,
            });
        }
        self.quota_remaining -= needed;
        self.debited_total += needed;
        let file_id = FileId::derive(name, &self.keys.public, salt);
        let msg = FileCertificate::message(
            &file_id,
            &content.hash,
            content.size,
            replication,
            salt,
            now_us,
        );
        Ok(FileCertificate {
            file_id,
            content_hash: content.hash,
            size: content.size,
            replication,
            salt,
            inserted_at: now_us,
            owner: self.credential,
            signature: self.keys.sign(&msg),
        })
    }

    /// Credits quota directly (used when an insertion attempt fails before
    /// any copy was stored; the debit for unstored copies is returned).
    pub fn credit(&mut self, bytes: u64) {
        let before = self.quota_remaining;
        self.quota_remaining = self
            .quota_remaining
            .saturating_add(bytes)
            .min(self.quota_issued);
        self.credited_total += self.quota_remaining - before;
    }

    /// Issues a reclaim certificate for a file owned by this card.
    pub fn issue_reclaim_certificate(&self, file_id: &FileId) -> ReclaimCertificate {
        ReclaimCertificate {
            file_id: *file_id,
            owner: self.credential,
            signature: self.keys.sign(&ReclaimCertificate::message(file_id)),
        }
    }

    /// Credits the quota from a reclaim receipt; each (file, storer) pair
    /// is accepted once ("when the client presents an appropriate reclaim
    /// receipt issued by a storage node, the amount reclaimed is
    /// credited").
    pub fn credit_reclaim(
        &mut self,
        receipt: &ReclaimReceipt,
        broker: &AnchorKey,
    ) -> Result<u64, CardError> {
        if !receipt.verify(broker) {
            return Err(CardError::BadReceipt);
        }
        let key = (receipt.file_id, receipt.storer.card_key.to_bytes());
        if !self.credited.insert(key) {
            return Err(CardError::BadReceipt);
        }
        self.credit(receipt.freed);
        Ok(receipt.freed)
    }

    /// Issues a store receipt (storage-node side).
    pub fn issue_store_receipt(
        &self,
        file_id: &FileId,
        stored: u64,
        diverted: bool,
    ) -> StoreReceipt {
        StoreReceipt {
            file_id: *file_id,
            stored,
            diverted,
            storer: self.credential,
            signature: self
                .keys
                .sign(&StoreReceipt::message(file_id, stored, diverted)),
        }
    }

    /// Issues a reclaim receipt (storage-node side).
    pub fn issue_reclaim_receipt(&self, file_id: &FileId, freed: u64) -> ReclaimReceipt {
        ReclaimReceipt {
            file_id: *file_id,
            freed,
            storer: self.credential,
            signature: self.keys.sign(&ReclaimReceipt::message(file_id, freed)),
        }
    }
}

impl std::fmt::Debug for Smartcard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Smartcard")
            .field("public", &self.keys.public)
            .field("quota_remaining", &self.quota_remaining)
            .field("contributed", &self.contributed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;

    fn setup() -> (Broker, Smartcard) {
        let mut broker = Broker::new(b"b");
        let card = broker.issue_card(b"u", 1000, 0);
        (broker, card)
    }

    #[test]
    fn quota_debits_size_times_k() {
        let (_b, mut card) = setup();
        let content = ContentRef::synthetic(0, "f", 100);
        card.issue_file_certificate("f", &content, 3, 0, 0).unwrap();
        assert_eq!(card.quota_remaining(), 700);
    }

    #[test]
    fn quota_exceeded_rejected() {
        let (_b, mut card) = setup();
        let content = ContentRef::synthetic(0, "f", 400);
        let err = card
            .issue_file_certificate("f", &content, 3, 0, 0)
            .unwrap_err();
        assert_eq!(
            err,
            CardError::QuotaExceeded {
                needed: 1200,
                remaining: 1000
            }
        );
        // No partial debit on failure.
        assert_eq!(card.quota_remaining(), 1000);
    }

    #[test]
    fn reclaim_receipt_credits_once() {
        let (broker, mut card) = setup();
        let storer = {
            let mut b2 = Broker::new(b"b");
            b2.issue_card(b"node", 0, 500)
        };
        let content = ContentRef::synthetic(0, "f", 100);
        let cert = card.issue_file_certificate("f", &content, 2, 0, 0).unwrap();
        assert_eq!(card.quota_remaining(), 800);
        let receipt = storer.issue_reclaim_receipt(&cert.file_id, 100);
        assert_eq!(
            card.credit_reclaim(&receipt, &broker.public()).unwrap(),
            100
        );
        assert_eq!(card.quota_remaining(), 900);
        // Replay is rejected.
        assert_eq!(
            card.credit_reclaim(&receipt, &broker.public()),
            Err(CardError::BadReceipt)
        );
        assert_eq!(card.quota_remaining(), 900);
    }

    #[test]
    fn credit_caps_at_issued_quota() {
        let (_b, mut card) = setup();
        card.credit(5000);
        assert_eq!(card.quota_remaining(), 1000);
    }

    #[test]
    fn hostile_freed_amount_saturates() {
        // `freed` comes off the wire: a certified storage node may sign
        // any value, and the sum must not wrap past the issued quota.
        let mut broker = Broker::new(b"b");
        let mut card = broker.issue_card(b"u", u64::MAX / 2, 0);
        let storer = broker.issue_card(b"node", 0, 500);
        let content = ContentRef::synthetic(0, "f", 100);
        let cert = card.issue_file_certificate("f", &content, 3, 0, 0).unwrap();
        let receipt = storer.issue_reclaim_receipt(&cert.file_id, u64::MAX);
        assert_eq!(
            card.credit_reclaim(&receipt, &broker.public()),
            Ok(u64::MAX)
        );
        assert_eq!(card.quota_remaining(), card.quota_issued());
        assert_eq!(card.credited_total(), 300);
    }

    #[test]
    fn forged_receipt_rejected() {
        let (broker, mut card) = setup();
        let rogue_broker = Broker::new(b"rogue");
        let rogue_card = {
            let mut rb = Broker::new(b"rogue");
            rb.issue_card(b"node", 0, 0)
        };
        let content = ContentRef::synthetic(0, "f", 10);
        let cert = card.issue_file_certificate("f", &content, 1, 0, 0).unwrap();
        let receipt = rogue_card.issue_reclaim_receipt(&cert.file_id, 999);
        // Receipt is from a card certified by a different broker.
        assert_eq!(
            card.credit_reclaim(&receipt, &broker.public()),
            Err(CardError::BadReceipt)
        );
        let _ = rogue_broker;
    }
}
