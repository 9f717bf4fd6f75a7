//! Brokers: the trusted third party issuing smartcards (§2.1).
//!
//! "Organizations called brokers may trade storage and issue smartcards to
//! users, which control how much storage must be contributed and/or may be
//! used. The broker is not directly involved in the operation of the PAST
//! network, and its knowledge about the system is limited to the number of
//! smartcards it has circulated, their quotas and expiration dates."
//!
//! The broker also keeps the supply/demand ledger: "there must be a balance
//! between the sum of all client quotas (potential demand) and the total
//! available storage in the system (supply). The broker ensures that
//! balance."

use crate::cert::CardCert;
use crate::smartcard::Smartcard;
use past_crypto::{AnchorKey, KeyPair};

/// A smartcard issuer and supply/demand ledger.
pub struct Broker {
    keys: KeyPair,
    anchor: AnchorKey,
    cards_issued: u64,
    quota_issued_total: u64,
    contribution_total: u64,
}

impl Broker {
    /// Creates a broker with keys derived from `seed`.
    pub fn new(seed: &[u8]) -> Broker {
        let mut key_seed = b"past-broker-v1".to_vec();
        key_seed.extend_from_slice(seed);
        let keys = KeyPair::from_seed(&key_seed);
        Broker {
            anchor: AnchorKey::new(keys.public),
            keys,
            cards_issued: 0,
            quota_issued_total: 0,
            contribution_total: 0,
        }
    }

    /// The broker's public key (the trust anchor every node verifies
    /// certificates against), with its verification table built once in
    /// [`Broker::new`]: a clone shares that table.
    pub fn public(&self) -> AnchorKey {
        self.anchor.clone()
    }

    /// Issues a smartcard with a usage quota and a storage contribution.
    ///
    /// `seed` keeps card keys deterministic per experiment.
    pub fn issue_card(&mut self, seed: &[u8], quota: u64, contributed: u64) -> Smartcard {
        let mut key_seed = b"past-card-v1".to_vec();
        key_seed.extend_from_slice(&self.keys.public.to_bytes());
        key_seed.extend_from_slice(seed);
        let keys = KeyPair::from_seed(&key_seed);
        let credential = CardCert {
            card_key: keys.public,
            broker_key: self.keys.public,
            broker_sig: self.keys.sign(&CardCert::message(&keys.public)),
        };
        self.cards_issued += 1;
        // Experiments hand out effectively-unbounded quotas; the ledger
        // saturates rather than overflowing.
        self.quota_issued_total = self.quota_issued_total.saturating_add(quota);
        self.contribution_total = self.contribution_total.saturating_add(contributed);
        Smartcard::new(keys, credential, quota, contributed)
    }

    /// Number of cards circulated.
    pub fn cards_issued(&self) -> u64 {
        self.cards_issued
    }

    /// Sum of all issued usage quotas (potential demand).
    pub fn demand(&self) -> u64 {
        self.quota_issued_total
    }

    /// Sum of all promised contributions (supply).
    pub fn supply(&self) -> u64 {
        self.contribution_total
    }

    /// Whether the broker's ledger balances: issued demand does not exceed
    /// promised supply.
    pub fn balanced(&self) -> bool {
        self.quota_issued_total <= self.contribution_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tracks_supply_and_demand() {
        let mut b = Broker::new(b"x");
        assert!(b.balanced());
        b.issue_card(b"storage-1", 0, 1000);
        b.issue_card(b"user-1", 600, 0);
        assert_eq!(b.cards_issued(), 2);
        assert_eq!(b.supply(), 1000);
        assert_eq!(b.demand(), 600);
        assert!(b.balanced());
        b.issue_card(b"user-2", 600, 0);
        assert!(!b.balanced());
    }

    #[test]
    fn distinct_brokers_have_distinct_keys() {
        assert_ne!(Broker::new(b"a").public(), Broker::new(b"b").public());
    }

    #[test]
    fn card_credentials_verify_against_issuer_only() {
        let mut a = Broker::new(b"a");
        let b = Broker::new(b"b");
        let card = a.issue_card(b"u", 10, 0);
        assert!(card.credential().verify(&a.public()));
        assert!(!card.credential().verify(&b.public()));
    }

    #[test]
    fn same_seed_same_card_key() {
        let mut a1 = Broker::new(b"a");
        let mut a2 = Broker::new(b"a");
        assert_eq!(
            a1.issue_card(b"u", 10, 0).public(),
            a2.issue_card(b"u", 10, 0).public()
        );
    }
}
