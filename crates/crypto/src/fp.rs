//! Multiplication modulo the group prime `p` in Montgomery form
//! (P. L. Montgomery, "Modular multiplication without trial division",
//! Math. Comp. 44, 1985).
//!
//! An [`Fp`] holds `x·R mod p` for `R = 2^256`. The Montgomery product of
//! two such values, `a·b·R⁻¹ mod p`, is again in that form, and computing
//! it needs no division: the CIOS multiply (coarsely integrated operand
//! scanning) adds, after each limb of `b`, the multiple of `p` that clears
//! the running sum's low limb, and shifts that limb out. Four limbs of `b`
//! shift out `R`. `modmath::mulmod` pays a long division for every
//! product instead.
//!
//! Every multiply mod `p` in the signature scheme runs here:
//! `PublicKey::verify` through [`pow2`], and the fixed-base combs under
//! `pow_g` (`sign`, `keygen`) and `AnchorKey::verify` through
//! `schnorr::comb_product`. `from_u256` and `mul` are `const fn`s, so the
//! same code puts `G_COMB` into Montgomery form at compile time. The
//! arithmetic mod `q` and the test oracles stay on `modmath`.

use crate::schnorr::group_p;
use crate::u256::U256;

const P: U256 = group_p();

/// `−p⁻¹ mod 2^64`: the factor that makes `t + (t₀·N0 mod 2^64)·p` a
/// multiple of `2^64`.
const N0: u64 = neg_inv64(P.0[0]);

/// `R mod p`, the Montgomery form of 1. `R = 2^256` is five limbs
/// `[0, 0, 0, 0, 1]`, and one subtraction of `p` brings it below `p`
/// because `p > 2^255`: `R mod p = 2^256 − p`.
const R1: U256 = reduce_once(U256::ZERO, 1);

/// `R² mod p`, the factor that takes a plain value into Montgomery form:
/// `R mod p` doubled modulo `p` 256 times.
const R2: U256 = {
    let mut x = R1.0;
    let mut i = 0;
    while i < 256 {
        x = reduce_once(
            U256([
                x[0] << 1,
                x[1] << 1 | x[0] >> 63,
                x[2] << 1 | x[1] >> 63,
                x[3] << 1 | x[2] >> 63,
            ]),
            x[3] >> 63,
        )
        .0;
        i += 1;
    }
    U256(x)
};

/// `−m⁻¹ mod 2^64` for odd `m`, by Newton's iteration: `inv` is the
/// inverse modulo 2 at the start, and each step doubles the number of
/// correct low bits, so six steps reach 64.
const fn neg_inv64(m: u64) -> u64 {
    let mut inv = 1u64;
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
}

/// The value `carry·2^256 + x`, less `p` if it is at least `p`: one
/// conditional subtraction, which brings any value below `2p` under `p`.
/// Because `p > 2^255`, such a value can need the fifth limb `carry`, and
/// then `x` alone may read below `p` although the value does not.
const fn reduce_once(x: U256, carry: u64) -> U256 {
    let mut d = [0u64; 4];
    let mut borrow = false;
    let mut i = 0;
    while i < 4 {
        let (d1, b1) = x.0[i].overflowing_sub(P.0[i]);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        d[i] = d2;
        borrow = b1 | b2;
        i += 1;
    }
    // `x − p` borrowed out of 256 bits: the value is below `p` unless the
    // fifth limb covers the borrow.
    if borrow && carry == 0 {
        x
    } else {
        U256(d)
    }
}

/// A residue mod `p` in Montgomery form: `Fp(x·R mod p)`, always below
/// `p`. Keeping it a type of its own keeps plain and Montgomery-form
/// values apart.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Fp(U256);

impl Fp {
    /// The Montgomery form of 1.
    pub(crate) const ONE: Fp = Fp(R1);

    /// The Montgomery form of `x mod p`. Every `x < 2^256` is below `2p`,
    /// so one conditional subtraction reduces it; a Montgomery multiply
    /// by `R²` then gives `x·R mod p`.
    pub(crate) const fn from_u256(x: &U256) -> Fp {
        Fp(reduce_once(*x, 0)).mul(&Fp(R2))
    }

    /// The plain value: a Montgomery multiply by 1 divides out `R`.
    pub(crate) const fn to_u256(self) -> U256 {
        self.mul(&Fp(U256::ONE)).0
    }

    /// The Montgomery product `Fp(a·R)·Fp(b·R) = Fp(a·b·R)`, by CIOS.
    /// For `a, b < p` the running sum stays below `a + p < 2p` after
    /// every limb of `b`, so it needs a fifth limb. The final sum is below
    /// `a·b/R + p`, which for this `p` (under `0.62·R`) stays under `R`;
    /// [`reduce_once`] reads the fifth limb all the same, which is what
    /// any `p > 2^255` needs. A `const fn` (hence the `while` loops), so
    /// the same multiply also puts `G_COMB` into Montgomery form at
    /// compile time.
    pub(crate) const fn mul(&self, rhs: &Fp) -> Fp {
        let (a, b) = (&self.0 .0, &rhs.0 .0);
        let mut t = [0u64; 5];
        let mut i = 0;
        while i < 4 {
            let bi = b[i] as u128;
            // t += a·bᵢ, into six limbs.
            let mut c = 0u128;
            let mut j = 0;
            while j < 4 {
                let s = t[j] as u128 + a[j] as u128 * bi + c;
                t[j] = s as u64;
                c = s >> 64;
                j += 1;
            }
            let s = t[4] as u128 + c;
            t[4] = s as u64;
            let t5 = (s >> 64) as u64;
            // t = (t + m·p) / 2^64, with m chosen so the low limb is zero.
            let m = t[0].wrapping_mul(N0) as u128;
            let mut c = (t[0] as u128 + m * P.0[0] as u128) >> 64;
            let mut j = 1;
            while j < 4 {
                let s = t[j] as u128 + m * P.0[j] as u128 + c;
                t[j - 1] = s as u64;
                c = s >> 64;
                j += 1;
            }
            let s = t[4] as u128 + c;
            t[3] = s as u64;
            t[4] = t5 + (s >> 64) as u64;
            i += 1;
        }
        Fp(reduce_once(U256([t[0], t[1], t[2], t[3]]), t[4]))
    }
}

/// Computes `a^x · b^y mod p` by the window-4 Straus walk of
/// `modmath::powmod2` — a 16-entry table per base, four squarings of the
/// shared accumulator per 4-bit window below the top one, and one table
/// multiply per non-zero digit — with every multiply a Montgomery one.
/// `0^0` counts as 1, as there.
pub(crate) fn pow2(a: &U256, x: &U256, b: &U256, y: &U256) -> U256 {
    let terms = [(a, x), (b, y)];
    let windows = x.bits().max(y.bits()).div_ceil(4);
    let tables = terms.map(|(base, _)| {
        let base = Fp::from_u256(base);
        let mut table = [Fp::ONE; 16];
        table[1] = base;
        for i in 2..16 {
            table[i] = table[i - 1].mul(&base);
        }
        table
    });
    let mut result = Fp::ONE;
    for w in (0..windows).rev() {
        if w + 1 < windows {
            for _ in 0..4 {
                result = result.mul(&result);
            }
        }
        for ((_, exp), table) in terms.iter().zip(&tables) {
            let digit = (exp.0[w / 16] >> (w % 16 * 4)) as usize & 0xf;
            if digit != 0 {
                result = result.mul(&table[digit]);
            }
        }
    }
    result.to_u256()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modmath::{mulmod, powmod2, rem256};
    use crate::rng::Rng;
    use crate::schnorr::group_q;

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    fn p_minus(k: u64) -> U256 {
        P.overflowing_sub(&u(k)).0
    }

    #[test]
    fn constants_rederive() {
        // p·N0 ≡ −1 (mod 2^64).
        assert_eq!(P.0[0].wrapping_mul(N0), u64::MAX);
        // R mod p = 2^256 − p, the two's-complement negation of p.
        assert_eq!(R1, U256::ZERO.overflowing_sub(&P).0);
        assert!(R1 < P);
        // R² mod p = (R mod p)² mod p, by long division.
        assert_eq!(R2, mulmod(&R1, &R1, &P));
    }

    #[test]
    fn reduce_once_reads_the_fifth_limb() {
        let p = P;
        // 2^256 + k for k < 2p − 2^256 = p − (2^256 − p): less p, that is
        // k + (2^256 − p), with no wrap.
        let (r, _) = U256::ZERO.overflowing_sub(&p);
        let (span, _) = p.overflowing_sub(&r);
        let mut rng = Rng::seed_from_u64(0x0f9_5ed0);
        let mut ks = vec![U256::ZERO, U256::ONE, span.overflowing_sub(&U256::ONE).0];
        ks.extend((0..1_000).map(|_| {
            let v = U256(std::array::from_fn(|_| rng.next_u64()));
            rem256(&v, &span)
        }));
        for k in &ks {
            assert_eq!(reduce_once(*k, 1), k.overflowing_add(&r).0, "k={k:?}");
        }
        // Without the fifth limb, every value below 2^256 comes out mod p.
        let mut xs = vec![U256::ZERO, p_minus(1), p, U256::MAX];
        xs.extend((0..1_000).map(|_| U256(std::array::from_fn(|_| rng.next_u64()))));
        for x in &xs {
            assert_eq!(reduce_once(*x, 0), rem256(x, &p), "x={x:?}");
        }
    }

    /// `Fp::mul` on raw limbs is `a·b·R⁻¹`: times `R` again it is `a·b`.
    /// Through `from_u256` and `to_u256` it is `a·b` itself.
    fn check_mul(a: &U256, b: &U256) {
        let p = P;
        let got = Fp(*a).mul(&Fp(*b)).0;
        assert!(got < p, "a={a:?} b={b:?}");
        assert_eq!(mulmod(&got, &R1, &p), mulmod(a, b, &p), "a={a:?} b={b:?}");
        let via_form = Fp::from_u256(a).mul(&Fp::from_u256(b)).to_u256();
        assert_eq!(via_form, mulmod(a, b, &p), "a={a:?} b={b:?}");
    }

    // For this p a product's final sum never needs the fifth limb (see
    // `Fp::mul`); inside the loop the running sum's fifth limb is set in
    // several hundred of the products below.
    #[test]
    fn mul_matches_mulmod() {
        let edges = [u(0), u(1), u(2), p_minus(2), p_minus(1), R1];
        for a in &edges {
            for b in &edges {
                check_mul(a, b);
            }
        }
        let mut rng = Rng::seed_from_u64(0x0f9_3041);
        for _ in 0..10_000 {
            let v = U256(std::array::from_fn(|_| rng.next_u64()));
            let w = U256(std::array::from_fn(|_| rng.next_u64()));
            check_mul(&rem256(&v, &P), &rem256(&w, &P));
        }
    }

    #[test]
    fn from_u256_reduces_inputs_at_or_above_p() {
        let (p_plus_1, _) = P.overflowing_add(&U256::ONE);
        let (max_less_p, _) = U256::MAX.overflowing_sub(&P);
        for (x, reduced) in [
            (P, U256::ZERO),
            (p_plus_1, U256::ONE),
            (U256::MAX, max_less_p),
            (p_minus(1), p_minus(1)),
            (U256::ZERO, U256::ZERO),
        ] {
            assert_eq!(Fp::from_u256(&x), Fp::from_u256(&reduced), "x={x:?}");
            assert_eq!(Fp::from_u256(&x).to_u256(), reduced, "x={x:?}");
        }
        assert_eq!(Fp::from_u256(&U256::ONE), Fp::ONE);
    }

    #[test]
    fn pow2_matches_powmod2_on_edge_operands() {
        let p = P;
        let q = group_q();
        let (q_minus_1, _) = q.overflowing_sub(&U256::ONE);
        let exps = [
            u(0),
            u(1),
            u(15),
            u(16),
            u(17),
            U256([0, 1, 0, 0]),
            q_minus_1,
            q,
            U256::MAX,
        ];
        let bases = [u(0), u(1), u(4), u(0xabcdef), p_minus(1), p, U256::MAX];
        for a in &bases {
            for b in &bases {
                for x in &exps {
                    for y in &exps {
                        assert_eq!(
                            pow2(a, x, b, y),
                            powmod2(a, x, b, y, &p),
                            "a={a:?} x={x:?} b={b:?} y={y:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pow2_matches_powmod2_on_random_operands() {
        let mut rng = Rng::seed_from_u64(0x0f9_2a11);
        let mut wide = |limbs: usize| {
            let mut v = U256(std::array::from_fn(|_| rng.next_u64()));
            for l in v.0.iter_mut().skip(limbs) {
                *l = 0;
            }
            v
        };
        for round in 0..1_200 {
            // Exponent widths vary independently, so one exponent's top
            // window is often far below the other's; bases are full
            // 256-bit values, some of them at or above p.
            let (a, b) = (wide(4), wide(4));
            let x = wide(1 + round / 5 % 4);
            let y = wide(1 + round / 7 % 4);
            assert_eq!(
                pow2(&a, &x, &b, &y),
                powmod2(&a, &x, &b, &y, &P),
                "a={a:?} x={x:?} b={b:?} y={y:?}"
            );
        }
    }
}
