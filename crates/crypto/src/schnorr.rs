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

use crate::fp::{self, Fp};
use crate::modmath::{addmod, mulmod, rem256};
use crate::sha256::Sha256;
use crate::u256::U256;
use std::sync::Arc;

/// The 256-bit safe prime `p` defining the group `Z_p^*`.
pub const fn group_p() -> U256 {
    U256([
        0x24784f933634954f,
        0xe50f848f2335e646,
        0x2df1a1badef3eab8,
        0x988375c084ea6e19,
    ])
}

/// `q = (p − 1) / 2`: `p` is odd, so one right shift drops its low bit
/// and halves the rest.
const Q: U256 = group_p().shr1();

/// The 255-bit prime order `q = (p - 1) / 2` of the signing subgroup.
pub const fn group_q() -> U256 {
    Q
}

/// The subgroup generator `g = 4 = 2^2`, a quadratic residue of order `q`.
pub const fn group_g() -> U256 {
    U256::from_u64(4)
}

/// Builds the fixed-base comb of `base` in Montgomery form: a Lim–Lee comb
/// with eight teeth, one per 32-bit part of a scalar. Entry `j` is the
/// product of `base^(2^(32·i)) mod p` over the set bits `i` of `j`, so one
/// lookup contributes the same bit position of all eight parts at once.
/// 224 squarings for the eight single-tooth entries, then one multiply for
/// each of the other 247 (entry `j` is entry `j` without its lowest set
/// bit times that bit's entry). A `const fn` (hence the `while` loops):
/// the compiler runs it for `g` ([`G_COMB_FP`]), and [`AnchorKey::new`]
/// at run time for the broker's key.
const fn comb_table(base: &U256) -> [Fp; 256] {
    let mut table = [Fp::ONE; 256];
    let mut tooth = Fp::from_u256(base);
    table[1] = tooth;
    let mut i = 1;
    while i < 8 {
        let mut k = 0;
        while k < 32 {
            tooth = tooth.mul(&tooth);
            k += 1;
        }
        table[1 << i] = tooth;
        i += 1;
    }
    let mut j = 1usize;
    while j < 256 {
        let low = j & j.wrapping_neg();
        if j != low {
            table[j] = table[j ^ low].mul(&table[low]);
        }
        j += 1;
    }
    table
}

/// The comb of [`group_g`], the table [`comb_product`] walks for `g`:
/// evaluated at compile time, so it is 8 KiB of read-only data like `p`
/// itself, and nothing runs at start-up or on first use.
const G_COMB_FP: [Fp; 256] = comb_table(&group_g());

/// The comb walk `∏ baseᵢ^expᵢ mod p` behind [`pow_g`] (one term) and
/// [`AnchorKey::verify`] (two), each base given by its [`comb_table`]:
/// for bit column 31 down to 0, square the shared accumulator and multiply
/// by each term's entry selected by that bit of its exponent's eight
/// 32-bit parts — 31 squarings and at most 32 multiplies per term for
/// 256-bit exponents, each a Montgomery multiply, and one conversion out
/// of Montgomery form at the end. Leading columns where every exponent is
/// zero are skipped (variable-time, like `modmath::powmod`).
fn comb_product<const N: usize>(terms: [(&[Fp; 256], &U256); N]) -> U256 {
    let all = terms
        .iter()
        .flat_map(|(_, exp)| exp.0)
        .fold(0, |all, limb| all | limb);
    let columns = 32 - ((all | all >> 32) as u32).leading_zeros();
    let mut result = Fp::ONE;
    for col in (0..columns).rev() {
        if col + 1 < columns {
            result = result.mul(&result);
        }
        for (table, exp) in &terms {
            // Bit `col` of part `i` (bits 32·i.. of `exp`) is bit `i` of
            // the digit; limb `l` holds parts `2l` (low half) and `2l + 1`.
            let mut digit = 0;
            for limb in exp.0.iter().rev() {
                digit = digit << 2 | (limb >> (col + 32) & 1) << 1 | (limb >> col & 1);
            }
            if digit != 0 {
                result = result.mul(&table[digit as usize]);
            }
        }
    }
    result.to_u256()
}

/// Computes `g^exp mod p` for the generator [`group_g`] with the
/// fixed-base comb `G_COMB_FP`: 31 squarings and at most 32 multiplies for
/// any 256-bit scalar, against about 330 for `modmath::powmod`, which must
/// build a window table for a base it has never seen and walk all 252
/// squarings. Equal to `powmod(&group_g(), exp, &group_p())` for every
/// `exp`, and variable-time like it.
pub fn pow_g(exp: &U256) -> U256 {
    comb_product([(&G_COMB_FP, exp)])
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
    /// one interleaved double exponentiation — `modmath::powmod2`'s walk,
    /// on Montgomery multiplies modulo `p`.
    ///
    /// That is `g^s ≡ R · y^e` with `y^e` moved across: the range checks
    /// put `y` in `Z_p^*`, where `y^(p−1) = 1` whether or not `y` lies in
    /// the order-`q` subgroup, so `y^(p−1−e)` is the inverse of `y^e`;
    /// and `0 < e < q < p−1` keeps the exponent positive. A response
    /// `s ≥ q` is refused: `g` has order `q`, so `(R, s + q)` would
    /// satisfy the equation whenever `(R, s)` does, and a signature must
    /// have one encoding.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        verify_with(self, msg, sig, |s, neg_e| {
            fp::pow2(&group_g(), s, &self.0, neg_e)
        })
    }
}

/// The verification predicate shared by [`PublicKey::verify`] and
/// [`AnchorKey::verify`]: the range checks, the challenge `e`, and
/// `g^s · y^(p−1−e) == R` with the product computed by `product(s, p−1−e)`.
fn verify_with(
    key: &PublicKey,
    msg: &[u8],
    sig: &Signature,
    product: impl FnOnce(&U256, &U256) -> U256,
) -> bool {
    let p = group_p();
    if sig.commitment.is_zero()
        || sig.commitment >= p
        || key.0.is_zero()
        || key.0 >= p
        || sig.response >= group_q()
    {
        return false;
    }
    let e = challenge(&sig.commitment, key, msg);
    let (p_minus_1, _) = p.overflowing_sub(&U256::ONE);
    let (neg_e, _) = p_minus_1.overflowing_sub(&e);
    product(&sig.response, &neg_e) == sig.commitment
}

/// A verification key that carries its own fixed-base comb: the trust
/// anchor (the broker's key) that every node checks half of all
/// signatures against. [`AnchorKey::verify`] answers exactly as
/// [`PublicKey::verify`] does — same range checks, same challenge, same
/// equation — but walks `G_COMB_FP` and the key's table together over 32
/// columns: 31 squarings and at most 64 multiplies instead of about 400.
///
/// Building the table costs about 470 multiplies, once per key. Cloning
/// is an `Arc` clone, so every holder of the anchor shares one 8 KiB
/// table; nothing caches a verification result.
#[derive(Clone)]
pub struct AnchorKey(Arc<Anchor>);

struct Anchor {
    key: PublicKey,
    comb: [Fp; 256],
}

impl AnchorKey {
    /// Builds the comb for `key`.
    pub fn new(key: PublicKey) -> AnchorKey {
        AnchorKey(Arc::new(Anchor {
            key,
            comb: comb_table(&key.0),
        }))
    }

    /// The plain public key.
    pub fn key(&self) -> PublicKey {
        self.0.key
    }

    /// Verifies `sig` over `msg` under this key; equal to
    /// `self.key().verify(msg, sig)` for every input.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        verify_with(&self.0.key, msg, sig, |s, neg_e| {
            comb_product([(&G_COMB_FP, s), (&self.0.comb, neg_e)])
        })
    }
}

impl PartialEq for AnchorKey {
    // The table is a function of the key, so the keys decide.
    fn eq(&self, other: &AnchorKey) -> bool {
        self.0.key == other.0.key
    }
}

impl Eq for AnchorKey {}

impl std::fmt::Debug for AnchorKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AnchorKey").field(&self.0.key).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modmath::{powmod, powmod2};
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
        let anchor = AnchorKey::new(KeyPair::from_seed(b"anchor").public);
        let combs = [(group_g(), &G_COMB_FP), (anchor.key().0, &anchor.0.comb)];
        for (base, table) in combs {
            // base^(2^(32·i)): the scalar whose only set bit is bit 0 of
            // part i.
            let part_bases: [U256; 8] = std::array::from_fn(|i| {
                let mut e = U256::ZERO;
                e.0[i / 2] = 1 << (32 * (i % 2));
                powmod(&base, &e, &p)
            });
            for (j, entry) in table.iter().enumerate() {
                let want = (0..8)
                    .filter(|i| j >> i & 1 == 1)
                    .fold(U256::ONE, |acc, i| mulmod(&acc, &part_bases[i], &p));
                assert_eq!(entry.to_u256(), want, "base={base:?} entry {j}");
            }
        }
    }

    #[test]
    fn g_comb_fp_entries_are_single_powmods_in_montgomery_form() {
        let p = group_p();
        for (j, entry) in G_COMB_FP.iter().enumerate() {
            // g to the sum of 2^(32·i) over the set bits i of j, one powmod.
            let mut e = U256::ZERO;
            for i in (0..8).filter(|i| j >> i & 1 == 1) {
                e.0[i / 2] |= 1 << (32 * (i % 2));
            }
            let plain = powmod(&group_g(), &e, &p);
            assert_eq!(*entry, Fp::from_u256(&plain), "G_COMB_FP[{j}]");
            assert_eq!(entry.to_u256(), plain, "G_COMB_FP[{j}]");
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
            U256([u32::MAX as u64, 0, 0, 0]), // 2^32 − 1
            U256([1 << 32, 0, 0, 0]),         // 2^32
            U256([u64::MAX, 0, 0, 0]),        // 2^64 − 1
            U256([0, 1, 0, 0]),               // 2^64
            U256([0, 1 << 32, 0, 0]),         // 2^96
            U256([u64::MAX, u64::MAX, 0, 0]), // 2^128 − 1
            U256([0, 0, 1, 0]),               // 2^128
            U256([0, 0, 1 << 32, 0]),         // 2^160
            U256([0, 0, 0, 1]),               // 2^192
            U256([0, 0, 0, 1 << 32]),         // 2^224
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
        // One 32-bit part all-ones, the rest zero — and the complement.
        for i in 0..8 {
            let mut k = U256::ZERO;
            k.0[i / 2] = (u32::MAX as u64) << (32 * (i % 2));
            check(k);
            check(U256(k.0.map(|l| !l)));
        }
        // Each 32-bit part's width drawn independently, so columns where
        // only some parts still have bits — and whole zero parts — are
        // common.
        let mut rng = Rng::seed_from_u64(0xc04b);
        let mut part = || match rng.next_u64() % 33 {
            0 => 0,
            width => rng.next_u64() >> (64 - width),
        };
        for _ in 0..2_400 {
            check(U256(std::array::from_fn(|_| part() | part() << 32)));
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
    fn two_term_comb_matches_powmod2() {
        let p = group_p();
        let (p_minus_1, _) = p.overflowing_sub(&U256::ONE);
        let bases = [group_g(), KeyPair::from_seed(b"anchor").public.0, p_minus_1];
        let mut rng = Rng::seed_from_u64(0xa2c4);
        // Each 32-bit part's width drawn independently, as in the `pow_g`
        // test: zero upper parts, and columns only one exponent reaches.
        let mut part = || match rng.next_u64() % 33 {
            0 => 0,
            width => rng.next_u64() >> (64 - width),
        };
        for base in bases {
            let table = comb_table(&base);
            let mut exps = vec![U256::ZERO, U256::ONE, U256::MAX];
            exps.extend((0..8).map(|i| {
                let mut k = U256::ZERO;
                k.0[i / 2] = (u32::MAX as u64) << (32 * (i % 2));
                k
            }));
            for _ in 0..150 {
                exps.push(U256(std::array::from_fn(|_| part() | part() << 32)));
            }
            for (i, x) in exps.iter().enumerate() {
                let y = &exps[(i * 7 + 3) % exps.len()];
                assert_eq!(
                    comb_product([(&G_COMB_FP, x), (&table, y)]),
                    powmod2(&group_g(), x, &base, y, &p),
                    "base={base:?} x={x:?} y={y:?}"
                );
            }
        }
    }

    #[test]
    fn anchor_verify_matches_public_key_and_oracle() {
        let p = group_p();
        let q = group_q();
        let (p_minus_1, _) = p.overflowing_sub(&U256::ONE);
        let mut rng = Rng::seed_from_u64(0xa4c4_0707);
        let (mut accepted, mut accepted_outside, mut cases) = (0, 0, 0);
        for round in 0..60u32 {
            let kp = KeyPair::from_seed(&rng.next_u64().to_be_bytes());
            // Every other anchor lies outside the order-q subgroup:
            // y = −g^x, or the order-2 element p − 1 itself.
            let outside = match round % 4 {
                1 => Some(mulmod(&kp.public.0, &p_minus_1, &p)),
                3 => Some(p_minus_1),
                _ => None,
            };
            let key = PublicKey(outside.unwrap_or(kp.public.0));
            let anchor = AnchorKey::new(key);
            assert_eq!(anchor.key(), key);
            for case in 0..14u32 {
                let mut msg = rng.next_u64().to_be_bytes().to_vec();
                let mut sig = match outside {
                    // A signature made for the outside key with x (0 for
                    // p − 1): y^e = (−1)^e · g^(xe), so the equation holds
                    // exactly when e is even and both answers occur.
                    Some(_) => {
                        let k = U256::from_u64(rng.next_u64() | 1);
                        let commitment = powmod(&group_g(), &k, &p);
                        let e = challenge(&commitment, &key, &msg);
                        let x = if key.0 == p_minus_1 {
                            U256::ZERO
                        } else {
                            kp.secret
                        };
                        let response = addmod(&k, &mulmod(&e, &x, &q), &q);
                        Signature {
                            commitment,
                            response,
                        }
                    }
                    None => kp.sign(&msg),
                };
                let pick = rng.next_u64() as usize;
                let flip = |v: &mut U256| v.0[pick % 4] ^= 1 << (pick / 4 % 64);
                match case {
                    0..=3 => {}
                    4 => msg[pick % 8] ^= 1 << (pick / 8 % 8),
                    5 => flip(&mut sig.commitment),
                    6 => flip(&mut sig.response),
                    7 => sig.response = q,
                    8 => sig.response = sig.response.overflowing_add(&q).0,
                    9 => sig.response = U256::MAX,
                    10 => sig.commitment = U256::ZERO,
                    11 => sig.commitment = [p, U256::MAX][pick % 2],
                    // A response whose upper 32-bit parts are all zero.
                    12 => sig.response = U256::from_u64(pick as u64 >> 32),
                    _ => sig.commitment = mulmod(&sig.commitment, &p_minus_1, &p),
                }
                let got = anchor.verify(&msg, &sig);
                assert_eq!(got, key.verify(&msg, &sig), "round {round} case {case}");
                if sig.response < q {
                    assert_eq!(
                        got,
                        verify_two_powmods(&key, &msg, &sig),
                        "round {round} case {case}"
                    );
                } else {
                    assert!(!got, "round {round} case {case}: s >= q accepted");
                }
                cases += 1;
                accepted += got as u32;
                accepted_outside += (got && outside.is_some()) as u32;
            }
        }
        assert!(
            cases == 840 && accepted >= 150 && accepted_outside >= 20,
            "{cases} {accepted} {accepted_outside}"
        );
    }

    #[test]
    fn anchor_keys_compare_by_key_and_share_their_table() {
        let a = AnchorKey::new(KeyPair::from_seed(b"a").public);
        let b = AnchorKey::new(KeyPair::from_seed(b"b").public);
        let a2 = a.clone();
        assert!(Arc::ptr_eq(&a.0, &a2.0));
        assert_eq!(a, a2);
        assert_eq!(a, AnchorKey::new(a.key()));
        assert_ne!(a, b);
        assert_eq!(std::mem::size_of::<AnchorKey>(), 8);
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
