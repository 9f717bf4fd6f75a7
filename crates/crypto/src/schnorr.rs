//! Schnorr signatures over a 256-bit prime-field group.
//!
//! The PAST paper requires an unforgeable public-key signature scheme for
//! file certificates, store receipts and reclaim certificates, but does not
//! prescribe one. We implement classic Schnorr signatures in the subgroup of
//! quadratic residues of `Z_p^*` for a baked-in 256-bit safe prime
//! `p = 2q + 1` (generated offline with seed 20010601 and re-validated by
//! the Miller–Rabin test in `modmath`). Nonces are derived
//! deterministically from the secret key and the message (RFC-6979 style),
//! which keeps simulations reproducible and avoids nonce-reuse pitfalls.

use crate::modmath::{addmod, mulmod, powmod2, rem256};
use crate::sha256::Sha256;
use crate::u256::U256;

/// The 256-bit safe prime `p` defining the group `Z_p^*`.
pub fn group_p() -> U256 {
    U256([
        0x24784f933634954f,
        0xe50f848f2335e646,
        0x2df1a1badef3eab8,
        0x988375c084ea6e19,
    ])
}

/// The 255-bit prime order `q = (p - 1) / 2` of the signing subgroup.
pub fn group_q() -> U256 {
    U256([
        0x123c27c99b1a4aa7,
        0x7287c247919af323,
        0x96f8d0dd6f79f55c,
        0x4c41bae04275370c,
    ])
}

/// The subgroup generator `g = 4 = 2^2`, a quadratic residue of order `q`.
pub fn group_g() -> U256 {
    U256::from_u64(4)
}

/// Fixed-base table for [`group_g`]: a Lim–Lee comb over the four 64-bit
/// limbs of a scalar. Entry `j` is the product of `g^(2^(64·i)) mod p`
/// over the set bits `i` of `j`, so one lookup contributes the same bit
/// position of all four limbs at once. A constant of the group like `p`
/// and `q` (re-derived from `powmod` by a test), not a cache.
#[rustfmt::skip]
const G_COMB: [U256; 16] = [
    U256([0x0000000000000001, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    U256([0x0000000000000004, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    U256([0xa75b66e256b4b8ff, 0x236b2dd2f2a01d39, 0x4c1a9753bc9a6b26, 0x6dcdad628a95e6ad]),
    U256([0x547cfc62ee69b95e, 0xc38dae2d8414a85a, 0xd48719d93481d726, 0x862fca092082be82]),
    U256([0xb71484e269f901f8, 0x3ffadfc612454721, 0xc5b56fafbb295725, 0x3111a573a23a3bda]),
    U256([0xb7d9c3f671af7291, 0x1adbfa8925df3640, 0xe8e41d040db171dc, 0x2bc3200e03fe8151]),
    U256([0x02cb3928ade34d24, 0x6df70ed78b97b4de, 0xb137decd6c25b0f1, 0x709c1b902f5705ef]),
    U256([0xc23c457c4b2409f2, 0xedbd323fe7f306eb, 0x68fc37bff2aeee53, 0x916982bfb3873b8c]),
    U256([0x69f7920cc3df1840, 0x41bd781e25a08476, 0x4d018191e0ad1705, 0x3000bf3186243f12]),
    U256([0x8365f89fd947cbb1, 0x21e65be9734c2b93, 0x0614648ca3c0715c, 0x277f870593a68e30]),
    U256([0x34d927f690ce7971, 0xf87f56bd9062cd0b, 0x745fbf0dfae4ca69, 0x4e7bb4ee32e553a0]),
    U256([0x8a7400b3d6d0bb26, 0x17de51d7fb1f67a0, 0x759bb8c22dab5436, 0x08e7e837c1c0724f]),
    U256([0xc7365faf9b921291, 0xf43f04e9af0afcc9, 0xa22e07c8d6ea3a73, 0x387d188863af0a94]),
    U256([0xf8612f2b3813b4f5, 0xebec8f1798f60ce0, 0x5ac67d687cb4ff16, 0x4970ec6109d1bc39]),
    U256([0x1fbfcdf3841e5c14, 0x064bf0fcf1795bbc, 0xd323e916a54fb091, 0x36d33a5f456899f8]),
    U256([0x5a86e83ada44db01, 0x34203f64a2af88aa, 0x1e9e029fb64ad78b, 0x42c973bc90b7f9ca]),
];

/// Computes `g^exp mod p` for the generator [`group_g`] with the
/// fixed-base comb `G_COMB`: for bit column 63 down to 0, square the
/// accumulator and multiply by the entry selected by that bit of each
/// limb — 63 squarings and at most 64 multiplies for any 256-bit scalar,
/// against about 330 for `modmath::powmod`, which must build a window
/// table for a base it has never seen and walk all 252 squarings. Equal
/// to `powmod(&group_g(), exp, &group_p())` for every `exp`, and
/// variable-time like it.
pub fn pow_g(exp: &U256) -> U256 {
    let p = group_p();
    let columns = 64 - exp.0.iter().fold(0, |all, limb| all | limb).leading_zeros();
    let mut result = U256::ONE;
    for col in (0..columns).rev() {
        if col + 1 < columns {
            result = mulmod(&result, &result, &p);
        }
        // Bit `col` of limb `i` is bit `i` of the digit.
        let mut digit = 0;
        for limb in exp.0.iter().rev() {
            digit = digit << 1 | (limb >> col & 1) as usize;
        }
        if digit != 0 {
            result = mulmod(&result, &G_COMB[digit], &p);
        }
    }
    result
}

/// A public verification key (a group element `y = g^x mod p`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PublicKey(pub U256);

impl PublicKey {
    /// Serializes the key to 32 big-endian bytes (input to nodeId hashing).
    pub fn to_bytes(self) -> [u8; 32] {
        self.0.to_be_bytes()
    }
}

/// A Schnorr signature `(R, s)` with `R = g^k` and `s = k + e·x mod q`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    /// The public nonce commitment `R = g^k mod p`.
    pub commitment: U256,
    /// The response scalar `s = k + e·x mod q`.
    pub response: U256,
}

impl Signature {
    /// Serializes the signature to 64 bytes (`R ‖ s`, big-endian halves).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.commitment.to_be_bytes());
        out[32..].copy_from_slice(&self.response.to_be_bytes());
        out
    }
}

/// A private/public key pair.
#[derive(Clone)]
pub struct KeyPair {
    secret: U256,
    /// The public half, freely shareable.
    pub public: PublicKey,
}

impl std::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the secret scalar.
        f.debug_struct("KeyPair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

/// Hashes arbitrary labeled byte strings to a nonzero scalar modulo `q`.
fn hash_to_scalar(label: &[u8], parts: &[&[u8]]) -> U256 {
    let q = group_q();
    let mut counter = 0u32;
    loop {
        let mut h = Sha256::new();
        h.update(label);
        h.update(&counter.to_be_bytes());
        for part in parts {
            h.update(&(part.len() as u64).to_be_bytes());
            h.update(part);
        }
        let digest = h.finalize();
        let scalar = rem256(&U256::from_be_bytes(&digest), &q);
        if !scalar.is_zero() {
            return scalar;
        }
        counter += 1;
    }
}

impl KeyPair {
    /// Derives a key pair deterministically from a seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use past_crypto::schnorr::KeyPair;
    ///
    /// let kp = KeyPair::from_seed(b"card-0001");
    /// let sig = kp.sign(b"hello");
    /// assert!(kp.public.verify(b"hello", &sig));
    /// ```
    pub fn from_seed(seed: &[u8]) -> KeyPair {
        let secret = hash_to_scalar(b"past-keygen-v1", &[seed]);
        let public = PublicKey(pow_g(&secret));
        KeyPair { secret, public }
    }

    /// Signs a message with a deterministic nonce.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let q = group_q();
        let k = hash_to_scalar(b"past-nonce-v1", &[&self.secret.to_be_bytes(), msg]);
        let commitment = pow_g(&k);
        let e = challenge(&commitment, &self.public, msg);
        // s = k + e·x mod q.
        let response = addmod(&k, &mulmod(&e, &self.secret, &q), &q);
        Signature {
            commitment,
            response,
        }
    }
}

/// The Fiat–Shamir challenge `e = H(R ‖ y ‖ msg) mod q`.
fn challenge(commitment: &U256, public: &PublicKey, msg: &[u8]) -> U256 {
    hash_to_scalar(
        b"past-chal-v1",
        &[&commitment.to_be_bytes(), &public.0.to_be_bytes(), msg],
    )
}

impl PublicKey {
    /// Verifies `sig` over `msg`: checks `g^s · y^(p−1−e) ≡ R (mod p)`,
    /// one interleaved double exponentiation ([`powmod2`]).
    ///
    /// That is `g^s ≡ R · y^e` with `y^e` moved across: the range checks
    /// put `y` in `Z_p^*`, where `y^(p−1) = 1` whether or not `y` lies in
    /// the order-`q` subgroup, so `y^(p−1−e)` is the inverse of `y^e`;
    /// and `0 < e < q < p−1` keeps the exponent positive. A response
    /// `s ≥ q` is refused: `g` has order `q`, so `(R, s + q)` would
    /// satisfy the equation whenever `(R, s)` does, and a signature must
    /// have one encoding.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let p = group_p();
        if sig.commitment.is_zero()
            || sig.commitment >= p
            || self.0.is_zero()
            || self.0 >= p
            || sig.response >= group_q()
        {
            return false;
        }
        let e = challenge(&sig.commitment, self, msg);
        let (p_minus_1, _) = p.overflowing_sub(&U256::ONE);
        let (neg_e, _) = p_minus_1.overflowing_sub(&e);
        powmod2(&group_g(), &sig.response, &self.0, &neg_e, &p) == sig.commitment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modmath::powmod;
    use crate::rng::Rng;

    /// The verification equation as it stood before the double
    /// exponentiation — `g^s ≡ R · y^e` with two independent `powmod`s
    /// and no bound on `s` — kept as the oracle `verify` is checked
    /// against.
    fn verify_two_powmods(key: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        let p = group_p();
        if sig.commitment.is_zero() || sig.commitment >= p || key.0.is_zero() || key.0 >= p {
            return false;
        }
        let e = challenge(&sig.commitment, key, msg);
        let lhs = powmod(&group_g(), &sig.response, &p);
        let rhs = mulmod(&sig.commitment, &powmod(&key.0, &e, &p), &p);
        lhs == rhs
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn known_answer_key_and_signature() {
        // Recorded on the two-`powmod` code: key generation and signing
        // must stay byte-identical under any change to verification.
        let kp = KeyPair::from_seed(b"kat-1");
        assert_eq!(
            hex(&kp.public.to_bytes()),
            "0124cc36ce969601dd507f88d72ef61fc96166eb308433838ac28737e110d352"
        );
        let sig = kp.sign(b"past-kat");
        assert_eq!(
            hex(&sig.to_bytes()),
            "0993330c1ca7e96088d3bcc275cce4c4da2858925202ccf0b5922420acb28fa6\
             17b9008a4d6c3d98af7fa807d181e115f8df020f4be31558b1457a7b04ee5819"
        );
        assert!(kp.public.verify(b"past-kat", &sig));
    }

    /// `from_seed` and `sign` as they stood before the comb — `g^x` and
    /// `g^k` by the generic window-4 `powmod` — kept as the oracle the
    /// fixed-base path is checked against.
    fn from_seed_powmod(seed: &[u8]) -> KeyPair {
        let secret = hash_to_scalar(b"past-keygen-v1", &[seed]);
        let public = PublicKey(powmod(&group_g(), &secret, &group_p()));
        KeyPair { secret, public }
    }

    fn sign_powmod(kp: &KeyPair, msg: &[u8]) -> Signature {
        let q = group_q();
        let k = hash_to_scalar(b"past-nonce-v1", &[&kp.secret.to_be_bytes(), msg]);
        let commitment = powmod(&group_g(), &k, &group_p());
        let e = challenge(&commitment, &kp.public, msg);
        let response = addmod(&k, &mulmod(&e, &kp.secret, &q), &q);
        Signature {
            commitment,
            response,
        }
    }

    #[test]
    fn comb_table_rederives_from_powmod() {
        let p = group_p();
        // g^(2^(64·i)): the scalar whose only set bit is bit 0 of limb i.
        let limb_bases: [U256; 4] = std::array::from_fn(|i| {
            let mut e = U256::ZERO;
            e.0[i] = 1;
            powmod(&group_g(), &e, &p)
        });
        for (j, entry) in G_COMB.iter().enumerate() {
            let want = (0..4)
                .filter(|i| j >> i & 1 == 1)
                .fold(U256::ONE, |acc, i| mulmod(&acc, &limb_bases[i], &p));
            assert_eq!(*entry, want, "G_COMB[{j}]");
        }
    }

    #[test]
    fn comb_matches_powmod_on_edge_and_random_scalars() {
        let p = group_p();
        let q = group_q();
        let check = |k: U256| assert_eq!(pow_g(&k), powmod(&group_g(), &k, &p), "k={k:?}");
        for i in 0..256 {
            let mut k = U256::ZERO;
            k.0[i / 64] = 1 << (i % 64);
            check(k);
        }
        let (q_minus_1, _) = q.overflowing_sub(&U256::ONE);
        for k in [
            U256::ZERO,
            U256::ONE,
            q_minus_1,
            q,
            U256([u64::MAX, 0, 0, 0]),        // 2^64 − 1
            U256([0, 1, 0, 0]),               // 2^64
            U256([u64::MAX, u64::MAX, 0, 0]), // 2^128 − 1
            U256([0, 0, 1, 0]),               // 2^128
            U256([0, 0, 0, 1]),               // 2^192
            U256::MAX,
        ] {
            check(k);
        }
        // One limb all-ones, the rest zero — and the complement.
        for i in 0..4 {
            let mut k = U256::ZERO;
            k.0[i] = u64::MAX;
            check(k);
            check(U256(k.0.map(|l| !l)));
        }
        // Each limb's width drawn independently, so columns where only
        // some limbs still have bits — and whole zero limbs — are common.
        let mut rng = Rng::seed_from_u64(0xc04b);
        for _ in 0..2_400 {
            check(U256(std::array::from_fn(|_| match rng.next_u64() % 65 {
                0 => 0,
                width => rng.next_u64() >> (64 - width),
            })));
        }
    }

    #[test]
    fn keys_and_signatures_match_the_powmod_signer() {
        let mut rng = Rng::seed_from_u64(0xf13d_ba5e);
        for _ in 0..500 {
            let seed = rng.next_u64().to_be_bytes();
            let msg = rng.next_u64().to_be_bytes();
            let kp = KeyPair::from_seed(&seed);
            let old = from_seed_powmod(&seed);
            assert_eq!((kp.secret, kp.public), (old.secret, old.public));
            let sig = kp.sign(&msg);
            assert_eq!(sig, sign_powmod(&old, &msg));
            assert!(kp.public.verify(&msg, &sig));
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(b"user-42");
        let sig = kp.sign(b"insert file 7");
        assert!(kp.public.verify(b"insert file 7", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = KeyPair::from_seed(b"user-42");
        let sig = kp.sign(b"msg-a");
        assert!(!kp.public.verify(b"msg-b", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = KeyPair::from_seed(b"user-1");
        let kp2 = KeyPair::from_seed(b"user-2");
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public.verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = KeyPair::from_seed(b"user-1");
        let mut sig = kp.sign(b"msg");
        sig.response = addmod(&sig.response, &U256::ONE, &group_q());
        assert!(!kp.public.verify(b"msg", &sig));
        let mut sig2 = kp.sign(b"msg");
        sig2.commitment = mulmod(&sig2.commitment, &group_g(), &group_p());
        assert!(!kp.public.verify(b"msg", &sig2));
    }

    #[test]
    fn malleated_response_rejected() {
        // g has order q and s + q < 2^256, so (R, s + q) satisfies the
        // verification equation too; it must not be a second valid
        // encoding of the same signature.
        let kp = KeyPair::from_seed(b"user-1");
        let sig = kp.sign(b"msg");
        let (shifted, carry) = sig.response.overflowing_add(&group_q());
        assert!(!carry);
        let malleated = Signature {
            commitment: sig.commitment,
            response: shifted,
        };
        assert!(verify_two_powmods(&kp.public, b"msg", &malleated));
        assert!(!kp.public.verify(b"msg", &malleated));
        assert!(kp.public.verify(b"msg", &sig));
    }

    #[test]
    fn verify_matches_two_powmod_oracle() {
        let p = group_p();
        let q = group_q();
        let (p_minus_1, _) = p.overflowing_sub(&U256::ONE);
        // The smallest quadratic non-residue: outside the order-q subgroup.
        let non_residue = (2..)
            .map(U256::from_u64)
            .find(|n| powmod(n, &q, &p) == p_minus_1)
            .unwrap();
        let outliers = [U256::ZERO, U256::ONE, non_residue, p_minus_1, p, U256::MAX];
        let mut rng = Rng::seed_from_u64(0x5c4_0a11);
        let (mut accepted, mut accepted_outside, mut over_q) = (0, 0, 0);
        for case in 0..1_200u32 {
            let kp = KeyPair::from_seed(&rng.next_u64().to_be_bytes());
            let mut msg = rng.next_u64().to_be_bytes().to_vec();
            let mut sig = kp.sign(&msg);
            let mut key = kp.public;
            let pick = rng.next_u64() as usize;
            let flip = |v: &mut U256| v.0[pick % 4] ^= 1 << (pick / 4 % 64);
            match case % 12 {
                0..=2 => {}
                3 => msg[pick % 8] ^= 1 << (pick / 8 % 8),
                4 => flip(&mut sig.commitment),
                5 => flip(&mut sig.response),
                6 => flip(&mut key.0),
                7 => sig.commitment = outliers[pick % outliers.len()],
                8 => key.0 = outliers[pick % outliers.len()],
                9 => sig.response = sig.response.overflowing_add(&q).0,
                10 => sig.commitment = mulmod(&sig.commitment, &p_minus_1, &p),
                _ => {
                    // A key outside the subgroup, y = −g^x, and a signature
                    // made for it with x: (−1)^e · g^(xe) = y^e, so the old
                    // equation holds exactly when e is even — the new one
                    // must accept those too, not only agree on rejects.
                    key.0 = mulmod(&key.0, &p_minus_1, &p);
                    let k = U256::from_u64(rng.next_u64() | 1);
                    let commitment = powmod(&group_g(), &k, &p);
                    let e = challenge(&commitment, &key, &msg);
                    let response = addmod(&k, &mulmod(&e, &kp.secret, &q), &q);
                    sig = Signature {
                        commitment,
                        response,
                    };
                }
            }
            let want = verify_two_powmods(&key, &msg, &sig);
            let got = key.verify(&msg, &sig);
            if sig.response >= q {
                // The one permitted disagreement: s >= q is always refused.
                assert!(!got, "case {case}: s >= q accepted");
                over_q += 1;
            } else {
                assert_eq!(got, want, "case {case}: key={key:?} sig={sig:?}");
            }
            accepted += got as u32;
            accepted_outside += (got && case % 12 == 11) as u32;
        }
        assert!(
            accepted >= 300 && accepted_outside >= 20 && over_q >= 100,
            "{accepted} {accepted_outside} {over_q}"
        );
    }

    #[test]
    fn degenerate_values_rejected() {
        let kp = KeyPair::from_seed(b"user-1");
        let sig = Signature {
            commitment: U256::ZERO,
            response: U256::ONE,
        };
        assert!(!kp.public.verify(b"msg", &sig));
        let bogus_key = PublicKey(U256::ZERO);
        assert!(!bogus_key.verify(b"msg", &kp.sign(b"msg")));
    }

    #[test]
    fn deterministic_keys_and_signatures() {
        let a = KeyPair::from_seed(b"same-seed");
        let b = KeyPair::from_seed(b"same-seed");
        assert_eq!(a.public, b.public);
        assert_eq!(a.sign(b"m"), b.sign(b"m"));
    }

    #[test]
    fn distinct_seeds_give_distinct_keys() {
        let a = KeyPair::from_seed(b"seed-a");
        let b = KeyPair::from_seed(b"seed-b");
        assert_ne!(a.public, b.public);
    }

    #[test]
    fn generator_has_order_q() {
        let p = group_p();
        let q = group_q();
        assert_eq!(powmod(&group_g(), &q, &p), U256::ONE);
        // g itself is not the identity.
        assert_ne!(group_g(), U256::ONE);
    }

    #[test]
    fn public_key_in_subgroup() {
        let kp = KeyPair::from_seed(b"subgroup-check");
        assert_eq!(powmod(&kp.public.0, &group_q(), &group_p()), U256::ONE);
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let kp = KeyPair::from_seed(b"secret-stays-secret");
        let rendered = format!("{kp:?}");
        assert!(!rendered.contains(&kp.secret.to_string()));
    }
}
