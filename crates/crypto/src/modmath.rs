//! Modular arithmetic over 256-bit moduli.
//!
//! What runs here: the scalar arithmetic mod `q` under `sign` and the
//! challenge (`rem256`, `addmod`, `mulmod`). Every multiply mod `p` —
//! `PublicKey::verify`'s walk and the fixed-base combs under `pow_g` and
//! `AnchorKey::verify` — runs in Montgomery form instead (the crate's
//! private `fp` module); `powmod` and `powmod2` are the independent
//! references that those walks are tested against.
//!
//! The reduction routine is word-wise long division (Knuth's Algorithm D
//! over 64-bit limbs): every Schnorr sign/verify performs hundreds of
//! reductions under `powmod`, so the former bit-serial loop (512 shift-
//! subtract rounds) dominated signature cost. The bit-serial version is
//! kept under `#[cfg(test)]` as an independently-derived reference the
//! word-wise code is checked against on randomized inputs.

use crate::u256::{U256, U512};

/// Reduces a 512-bit value modulo a non-zero 256-bit modulus.
///
/// Knuth TAOCP vol. 2, Algorithm 4.3.1 D, remainder only: normalize so
/// the divisor's top limb has its high bit set, then for each quotient
/// position estimate the digit from the top two dividend limbs, refine
/// it with the second divisor limb, and multiply-subtract (with at most
/// one add-back). Single-limb moduli take a plain `u128 %` fast path.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn rem512(x: &U512, m: &U256) -> U256 {
    assert!(!m.is_zero(), "division by zero modulus");
    // `n` = number of significant 64-bit limbs in the modulus.
    let n = 4 - m.0.iter().rev().take_while(|&&l| l == 0).count();
    if n == 1 {
        // One-limb modulus: fold the dividend down with u128 arithmetic.
        let d = m.0[0] as u128;
        let mut r: u128 = 0;
        for i in (0..8).rev() {
            r = ((r << 64) | x.0[i] as u128) % d;
        }
        return U256::from_u64(r as u64);
    }
    // Dividend already below the modulus: nothing to do.
    if x.0[4..].iter().all(|&l| l == 0) {
        let lo = U256([x.0[0], x.0[1], x.0[2], x.0[3]]);
        if lo < *m {
            return lo;
        }
    }
    // Normalize: shift both operands left so v[n-1] has its top bit set.
    // The dividend gains at most 63 bits, caught by a ninth limb.
    let s = m.0[n - 1].leading_zeros();
    let mut v = [0u64; 4];
    let mut u = [0u64; 9];
    if s == 0 {
        v[..n].copy_from_slice(&m.0[..n]);
        u[..8].copy_from_slice(&x.0);
    } else {
        for i in (1..n).rev() {
            v[i] = (m.0[i] << s) | (m.0[i - 1] >> (64 - s));
        }
        v[0] = m.0[0] << s;
        u[8] = x.0[7] >> (64 - s);
        for i in (1..8).rev() {
            u[i] = (x.0[i] << s) | (x.0[i - 1] >> (64 - s));
        }
        u[0] = x.0[0] << s;
    }
    // Main loop: one quotient digit per iteration, most significant first.
    // Only the remainder (left behind in u[0..n]) is kept.
    for j in (0..=8 - n).rev() {
        // Estimate the digit from the top two dividend limbs. Because the
        // running remainder stays below v, qhat <= B + 1 and the refinement
        // loop below runs at most twice (Knuth 4.3.1 Theorem B).
        let top = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
        let mut qhat = top / v[n - 1] as u128;
        let mut rhat = top % v[n - 1] as u128;
        while qhat >> 64 != 0 || qhat * v[n - 2] as u128 > (rhat << 64) | u[j + n - 2] as u128 {
            qhat -= 1;
            rhat += v[n - 1] as u128;
            if rhat >> 64 != 0 {
                break;
            }
        }
        // Multiply-subtract: u[j..=j+n] -= qhat * v[..n], tracking the
        // borrow in `k`. `t` is exact in i128 (|t| < 2^66).
        let mut k: i128 = 0;
        for i in 0..n {
            let p = qhat * v[i] as u128;
            let t = u[i + j] as i128 - k - (p as u64) as i128;
            u[i + j] = t as u64;
            k = (p >> 64) as i128 - (t >> 64);
        }
        let t = u[j + n] as i128 - k;
        u[j + n] = t as u64;
        // The estimate can be one too large; a negative top limb means the
        // subtraction overshot by exactly one v — add it back.
        if t < 0 {
            let mut carry: u128 = 0;
            for i in 0..n {
                let t2 = u[i + j] as u128 + v[i] as u128 + carry;
                u[i + j] = t2 as u64;
                carry = t2 >> 64;
            }
            u[j + n] = (u[j + n] as u128 + carry) as u64;
        }
    }
    // Denormalize the remainder: shift right by `s`.
    let mut r = [0u64; 4];
    if s == 0 {
        r[..n].copy_from_slice(&u[..n]);
    } else {
        for i in 0..n - 1 {
            r[i] = (u[i] >> s) | (u[i + 1] << (64 - s));
        }
        r[n - 1] = u[n - 1] >> s;
    }
    U256(r)
}

/// Reduces a 256-bit value modulo `m`.
pub fn rem256(x: &U256, m: &U256) -> U256 {
    rem512(&U512::from_u256(x), m)
}

/// Computes `(a + b) mod m` for `a, b < m`.
pub fn addmod(a: &U256, b: &U256, m: &U256) -> U256 {
    debug_assert!(a < m && b < m);
    let (s, carry) = a.overflowing_add(b);
    if carry || s >= *m {
        let (d, _) = s.overflowing_sub(m);
        d
    } else {
        s
    }
}

/// Computes `(a * b) mod m` for `a, b < m`.
pub fn mulmod(a: &U256, b: &U256, m: &U256) -> U256 {
    rem512(&a.widening_mul(b), m)
}

/// Computes `base^exp mod m` by fixed-window (w = 4) square-and-multiply:
/// precompute `base^0..base^15`, then per 4-bit exponent window do four
/// squarings and one table multiply — roughly 64 + 256/4 multiplies for a
/// 256-bit exponent versus ~384 for the bit-at-a-time ladder.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn powmod(base: &U256, exp: &U256, m: &U256) -> U256 {
    pow_product([(base, exp)], m)
}

/// Computes `a^x · b^y mod m` as one interleaved double exponentiation
/// (Straus, a.k.a. Shamir's trick): both exponents are walked over the
/// same 4-bit windows, so the chain of squarings is paid once instead of
/// once per base — about 252 + 2·(14 + 60) multiplies for two 256-bit
/// exponents, versus 2·(252 + 14 + 60) for two [`powmod`]s and a product.
/// `0^0` counts as 1, as in [`powmod`].
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn powmod2(a: &U256, x: &U256, b: &U256, y: &U256, m: &U256) -> U256 {
    pow_product([(a, x), (b, y)], m)
}

/// The window-4 product of powers `∏ baseᵢ^expᵢ mod m` behind [`powmod`]
/// (one term) and [`powmod2`] (two): per term a table `base^0..base^15`,
/// then from the top window of the longest exponent down, four squarings
/// of the shared accumulator and one table multiply per term whose
/// window digit is non-zero.
fn pow_product<const N: usize>(terms: [(&U256, &U256); N], m: &U256) -> U256 {
    assert!(!m.is_zero(), "zero modulus");
    if *m == U256::ONE {
        return U256::ZERO;
    }
    let top = terms.iter().map(|(_, exp)| exp.bits()).max().unwrap_or(0);
    if top == 0 {
        return U256::ONE;
    }
    let tables = terms.map(|(base, _)| {
        let b = rem256(base, m);
        let mut table = [U256::ONE; 16];
        table[1] = b;
        for i in 2..16 {
            table[i] = mulmod(&table[i - 1], &b, m);
        }
        table
    });
    let windows = top.div_ceil(4);
    let mut result = U256::ONE;
    for w in (0..windows).rev() {
        if w + 1 < windows {
            for _ in 0..4 {
                result = mulmod(&result, &result, m);
            }
        }
        for ((_, exp), table) in terms.iter().zip(&tables) {
            // Bits 4w..4w+3 of the exponent; `windows <= 64` keeps the
            // limb index in range.
            let digit = (exp.0[w / 16] >> (w % 16 * 4)) as usize & 0xf;
            if digit != 0 {
                result = mulmod(&result, &table[digit], m);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::u256::U256;

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    /// Miller–Rabin primality test over the fixed bases of the first
    /// fifteen primes; it validates the baked-in group parameters.
    fn is_probable_prime(n: &U256) -> bool {
        if *n < U256::from_u64(2) {
            return false;
        }
        const SMALL: [u64; 15] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47];
        for &p in &SMALL {
            let pv = U256::from_u64(p);
            if *n == pv {
                return true;
            }
            if rem256(n, &pv).is_zero() {
                return false;
            }
        }
        // Write n - 1 = d * 2^r.
        let (nm1, _) = n.overflowing_sub(&U256::ONE);
        let mut d = nm1;
        let mut r = 0u32;
        while d.is_even() {
            d = d.shr1();
            r += 1;
        }
        'base: for &a in &SMALL {
            let a = U256::from_u64(a);
            let mut x = powmod(&a, &d, n);
            if x == U256::ONE || x == nm1 {
                continue;
            }
            for _ in 0..r.saturating_sub(1) {
                x = mulmod(&x, &x, n);
                if x == nm1 {
                    continue 'base;
                }
            }
            return false;
        }
        true
    }

    /// The original bit-serial shift-subtract reduction, kept as an
    /// independently-derived reference for the word-wise Algorithm D.
    fn rem512_bitserial(x: &U512, m: &U256) -> U256 {
        assert!(!m.is_zero(), "division by zero modulus");
        let mut r = U256::ZERO;
        let top = x.bits();
        for i in (0..top).rev() {
            let (shifted, carry) = r.shl1();
            r = shifted;
            if x.bit(i) {
                r.0[0] |= 1;
            }
            // Before the shift r < m, so the true value 2r+bit < 2m; at most
            // one subtraction restores r < m. A carry out of 256 bits means
            // the true value exceeds 2^256 > m, so subtract (the wrapped
            // result is exact because 2r + bit - m < m <= 2^256).
            if carry || r >= *m {
                let (d, _) = r.overflowing_sub(m);
                r = d;
            }
        }
        r
    }

    #[test]
    fn rem512_matches_bitserial_on_random_inputs() {
        let mut rng = Rng::seed_from_u64(0x05ee_dd1f);
        for round in 0..2_000 {
            let x = U512(std::array::from_fn(|_| rng.next_u64()));
            // Sweep modulus widths so every limb count (and its qhat
            // refinement path) is exercised.
            let mut m = U256(std::array::from_fn(|_| rng.next_u64()));
            let limbs = round % 4;
            for l in m.0.iter_mut().skip(limbs + 1) {
                *l = 0;
            }
            if m.is_zero() {
                m = U256::ONE;
            }
            assert_eq!(rem512(&x, &m), rem512_bitserial(&x, &m), "x={x:?} m={m:?}");
        }
    }

    #[test]
    fn rem512_edge_moduli() {
        let mut rng = Rng::seed_from_u64(7);
        let xs: Vec<U512> = (0..8)
            .map(|_| U512(std::array::from_fn(|_| rng.next_u64())))
            .chain([U512([0; 8]), U512([u64::MAX; 8])])
            .collect();
        let mut ms = vec![
            U256::ONE,
            u(2),
            u(u64::MAX),
            U256([0, 1, 0, 0]),                      // 2^64
            U256([1, 1, 0, 0]),                      // 2^64 + 1
            U256([0, 0, 0, 1 << 63]),                // 2^255 (already normalized)
            U256([u64::MAX, u64::MAX, u64::MAX, 1]), // forces add-back paths
            U256::MAX,
            crate::schnorr::group_p(),
        ];
        ms.push(crate::schnorr::group_q());
        for x in &xs {
            for m in &ms {
                assert_eq!(rem512(x, m), rem512_bitserial(x, m), "m={m:?}");
            }
        }
    }

    #[test]
    fn powmod_matches_bit_ladder_on_random_inputs() {
        // Reference: the simple LSB-first square-and-multiply the windowed
        // version replaced.
        fn powmod_ladder(base: &U256, exp: &U256, m: &U256) -> U256 {
            let mut result = U256::ONE;
            let mut b = rem256(base, m);
            for i in 0..exp.bits() {
                if exp.bit(i) {
                    result = mulmod(&result, &b, m);
                }
                b = mulmod(&b, &b, m);
            }
            result
        }
        let mut rng = Rng::seed_from_u64(0xe4_9a11);
        let p = crate::schnorr::group_p();
        for _ in 0..40 {
            let b = U256(std::array::from_fn(|_| rng.next_u64()));
            let e = U256(std::array::from_fn(|_| rng.next_u64()));
            assert_eq!(powmod(&b, &e, &p), powmod_ladder(&b, &e, &p));
        }
        // Short exponents hit the partial top window.
        for e in [0u64, 1, 2, 3, 15, 16, 17, 255, 256, 257] {
            let b = u(0xabcdef);
            assert_eq!(powmod(&b, &u(e), &p), powmod_ladder(&b, &u(e), &p));
        }
    }

    /// `a^x · b^y mod m` the long way round: two `powmod`s and a product.
    fn powmod2_naive(a: &U256, x: &U256, b: &U256, y: &U256, m: &U256) -> U256 {
        mulmod(&powmod(a, x, m), &powmod(b, y, m), m)
    }

    #[test]
    fn powmod2_matches_two_powmods_on_random_inputs() {
        let mut rng = Rng::seed_from_u64(0x57_4a05);
        let mut wide = |limbs: usize| {
            let mut v = U256(std::array::from_fn(|_| rng.next_u64()));
            for l in v.0.iter_mut().skip(limbs) {
                *l = 0;
            }
            v
        };
        let p = crate::schnorr::group_p();
        for round in 0..2_400 {
            // A third of the rounds use the signature group; the rest
            // sweep odd and even moduli of every limb count.
            let m = if round % 3 == 0 {
                p
            } else {
                let mut m = wide(1 + round % 4);
                m.0[0] = (m.0[0] & !1) | ((round as u64 / 4) & 1);
                if m.is_zero() {
                    m = u(2);
                }
                m
            };
            // Exponent widths vary independently, so one exponent's top
            // window is often far below the other's.
            let (a, b) = (wide(4), wide(4));
            let x = wide(1 + round / 5 % 4);
            let y = wide(1 + round / 7 % 4);
            assert_eq!(
                powmod2(&a, &x, &b, &y, &m),
                powmod2_naive(&a, &x, &b, &y, &m),
                "a={a:?} x={x:?} b={b:?} y={y:?} m={m:?}"
            );
        }
    }

    #[test]
    fn powmod2_edge_operands() {
        let p = crate::schnorr::group_p();
        let q = crate::schnorr::group_q();
        let (p_minus_1, _) = p.overflowing_sub(&U256::ONE);
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
        let bases = [u(0), u(1), u(4), u(0xabcdef), p_minus_1, p, U256::MAX];
        let moduli = [U256::ONE, u(2), u(97), U256([0, 1, 0, 0]), q, p, U256::MAX];
        for m in &moduli {
            for a in &bases {
                for b in &bases {
                    for x in &exps {
                        for y in &exps {
                            assert_eq!(
                                powmod2(a, x, b, y, m),
                                powmod2_naive(a, x, b, y, m),
                                "a={a:?} x={x:?} b={b:?} y={y:?} m={m:?}"
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(powmod2(&u(5), &u(3), &u(7), &u(2), &U256::ONE), U256::ZERO);
        assert_eq!(powmod2(&u(0), &u(0), &u(0), &u(0), &u(7)), U256::ONE);
        assert_eq!(
            powmod2(&u(2), &u(10), &u(3), &u(4), &u(1_000_000)),
            u(82_944)
        );
    }

    #[test]
    #[should_panic(expected = "zero modulus")]
    fn powmod2_zero_modulus_panics() {
        powmod2(&u(2), &u(3), &u(5), &u(7), &U256::ZERO);
    }

    #[test]
    fn rem512_small_values() {
        let x = U512::from_u256(&u(100));
        assert_eq!(rem512(&x, &u(7)), u(2));
        assert_eq!(rem512(&x, &u(100)), u(0));
        assert_eq!(rem512(&x, &u(101)), u(100));
    }

    #[test]
    fn rem512_wide_product() {
        // (2^64)^2 = 2^128 mod 1_000_000_007, computed independently in
        // u128 as ((2^64 mod m)^2) mod m.
        let big = U256([0, 1, 0, 0]); // 2^64
        let sq = big.widening_mul(&big); // 2^128
        assert_eq!(rem512(&sq, &u(1_000_000_007)), u(279_632_277));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn rem512_zero_modulus_panics() {
        rem512(&U512::from_u256(&u(1)), &U256::ZERO);
    }

    #[test]
    fn addmod_wraps() {
        let m = u(13);
        assert_eq!(addmod(&u(7), &u(9), &m), u(3));
        assert_eq!(addmod(&u(0), &u(0), &m), u(0));
        assert_eq!(addmod(&u(12), &u(12), &m), u(11));
    }

    #[test]
    fn addmod_near_2_256() {
        // Modulus close to 2^256 exercises the carry path.
        let (m, _) = U256::MAX.overflowing_sub(&u(188)); // 2^256 - 189 (prime-ish, irrelevant)
        let (a, _) = m.overflowing_sub(&u(1));
        let (b, _) = m.overflowing_sub(&u(2));
        // (m-1 + m-2) mod m = m - 3.
        let (want, _) = m.overflowing_sub(&u(3));
        assert_eq!(addmod(&a, &b, &m), want);
    }

    #[test]
    fn mulmod_matches_u128() {
        let m = u(1_000_000_007);
        for (a, b) in [(123456789u64, 987654321u64), (999999999, 999999998)] {
            let want = ((a as u128 * b as u128) % 1_000_000_007) as u64;
            assert_eq!(mulmod(&u(a), &u(b), &m), u(want));
        }
    }

    #[test]
    fn powmod_matches_reference() {
        assert_eq!(powmod(&u(2), &u(10), &u(1_000_000)), u(1024));
        assert_eq!(powmod(&u(3), &u(0), &u(7)), u(1));
        assert_eq!(powmod(&u(0), &u(5), &u(7)), u(0));
        // Fermat: a^(p-1) = 1 mod p.
        assert_eq!(powmod(&u(5), &u(1_000_000_006), &u(1_000_000_007)), u(1));
    }

    #[test]
    fn powmod_modulus_one() {
        assert_eq!(powmod(&u(5), &u(3), &U256::ONE), U256::ZERO);
    }

    #[test]
    fn primality_small() {
        assert!(is_probable_prime(&u(2)));
        assert!(is_probable_prime(&u(3)));
        assert!(!is_probable_prime(&u(1)));
        assert!(!is_probable_prime(&u(0)));
        assert!(is_probable_prime(&u(104729)));
        assert!(!is_probable_prime(&u(104730)));
        // Carmichael number 561 must be rejected.
        assert!(!is_probable_prime(&u(561)));
    }

    #[test]
    fn baked_group_parameters_are_prime() {
        let p = crate::schnorr::group_p();
        let q = crate::schnorr::group_q();
        assert!(is_probable_prime(&p));
        assert!(is_probable_prime(&q));
        // p = 2q + 1 (safe prime).
        let (two_q, c) = q.overflowing_add(&q);
        assert!(!c);
        let (p_minus_1, _) = p.overflowing_sub(&U256::ONE);
        assert_eq!(two_q, p_minus_1);
    }
}
