//! Fixed-width 256-bit and 512-bit unsigned integers.
//!
//! These are the arithmetic substrate for the Schnorr signature scheme in
//! [`crate::schnorr`]. Only the operations needed by modular arithmetic are
//! provided: wrapping add/sub with carry/borrow reporting, full 256×256→512
//! multiplication, comparison and byte/hex conversions. The right shift
//! derives the group order `q` from `p`; the left shift and the parity
//! test serve only `modmath`'s test references (the bit-serial reduction
//! and the primality check), so they are compiled for tests alone. All
//! operations are constant-size loops over the limbs (no heap allocation).

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer stored as four little-endian `u64` limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

/// A 512-bit unsigned integer stored as eight little-endian `u64` limbs.
///
/// Produced by [`U256::widening_mul`] and consumed by the modular reduction
/// in [`crate::modmath`].
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct U512(pub [u64; 8]);

impl U256 {
    /// The additive identity.
    pub const ZERO: U256 = U256([0; 4]);
    /// The multiplicative identity.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The largest representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Creates a value from a single `u64`.
    pub const fn from_u64(v: u64) -> U256 {
        U256([v, 0, 0, 0])
    }

    /// Returns true if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Returns true if the value is even.
    #[cfg(test)]
    pub fn is_even(&self) -> bool {
        self.0[0] & 1 == 0
    }

    /// Returns bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < 256, "bit index out of range");
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns the number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        for limb in (0..4).rev() {
            if self.0[limb] != 0 {
                return limb * 64 + (64 - self.0[limb].leading_zeros() as usize);
            }
        }
        0
    }

    /// Wrapping addition, returning `(sum mod 2^256, carry_out)`.
    #[expect(
        clippy::needless_range_loop,
        reason = "one index walks the limbs of both operands and the result; hot code the micro rows time"
    )]
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U256(out), carry != 0)
    }

    /// Wrapping subtraction, returning `(diff mod 2^256, borrow_out)`.
    #[expect(
        clippy::needless_range_loop,
        reason = "one index walks the limbs of both operands and the result; hot code the micro rows time"
    )]
    pub fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for i in 0..4 {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256(out), borrow != 0)
    }

    /// Full 256×256→512-bit schoolbook multiplication.
    pub fn widening_mul(&self, rhs: &U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let t = out[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + 4] = carry as u64;
        }
        U512(out)
    }

    /// Shifts left by one bit, returning `(value << 1 mod 2^256, carry_out)`.
    #[cfg(test)]
    #[expect(
        clippy::needless_range_loop,
        reason = "one index walks the limbs of both operands and the result"
    )]
    pub fn shl1(&self) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            out[i] = (self.0[i] << 1) | carry;
            carry = self.0[i] >> 63;
        }
        (U256(out), carry != 0)
    }

    /// Shifts right by one bit. A `const fn` (hence the `while` loop):
    /// it derives the group order `q = p >> 1` at compile time.
    pub(crate) const fn shr1(&self) -> U256 {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        let mut i = 4;
        while i > 0 {
            i -= 1;
            out[i] = (self.0[i] >> 1) | (carry << 63);
            carry = self.0[i] & 1;
        }
        U256(out)
    }

    /// Parses a big-endian 32-byte array.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> U256 {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[(3 - i) * 8..(4 - i) * 8]);
            *limb = u64::from_be_bytes(chunk);
        }
        U256(limbs)
    }

    /// Serializes to a big-endian 32-byte array.
    // Inlined across crates so that `past_wire`'s counting sink, which
    // only takes the array's length, pays nothing for the conversion.
    #[inline]
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[(3 - i) * 8..(4 - i) * 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix, up to 64 digits).
    ///
    /// Returns `None` on invalid characters or overly long input.
    pub fn from_hex(s: &str) -> Option<U256> {
        if s.is_empty() || s.len() > 64 {
            return None;
        }
        let mut bytes = [0u8; 32];
        // Left-pad odd-length strings with an implicit zero nibble.
        let padded: String = if s.len() % 2 == 1 {
            format!("0{s}")
        } else {
            s.to_string()
        };
        let off = 32 - padded.len() / 2;
        for (i, pair) in padded.as_bytes().chunks(2).enumerate() {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            bytes[off + i] = ((hi << 4) | lo) as u8;
        }
        Some(U256::from_be_bytes(&bytes))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "U256(0x{:016x}{:016x}{:016x}{:016x})",
            self.0[3], self.0[2], self.0[1], self.0[0]
        )
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x}{:016x}{:016x}{:016x}",
            self.0[3], self.0[2], self.0[1], self.0[0]
        )
    }
}

impl U512 {
    /// Returns bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 512`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < 512, "bit index out of range");
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns the number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        for limb in (0..8).rev() {
            if self.0[limb] != 0 {
                return limb * 64 + (64 - self.0[limb].leading_zeros() as usize);
            }
        }
        0
    }

    /// Widens a 256-bit value into the low half.
    pub fn from_u256(v: &U256) -> U512 {
        let mut out = [0u64; 8];
        out[..4].copy_from_slice(&v.0);
        U512(out)
    }
}

impl fmt::Debug for U512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U512(0x")?;
        for i in (0..8).rev() {
            write!(f, "{:016x}", self.0[i])?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_small() {
        let a = U256::from_u64(7);
        let b = U256::from_u64(9);
        let (s, c) = a.overflowing_add(&b);
        assert_eq!(s, U256::from_u64(16));
        assert!(!c);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = U256([u64::MAX, 0, 0, 0]);
        let (s, c) = a.overflowing_add(&U256::ONE);
        assert_eq!(s, U256([0, 1, 0, 0]));
        assert!(!c);
    }

    #[test]
    fn add_overflow_wraps() {
        let (s, c) = U256::MAX.overflowing_add(&U256::ONE);
        assert_eq!(s, U256::ZERO);
        assert!(c);
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = U256([0, 1, 0, 0]);
        let (d, b) = a.overflowing_sub(&U256::ONE);
        assert_eq!(d, U256([u64::MAX, 0, 0, 0]));
        assert!(!b);
    }

    #[test]
    fn sub_underflow_wraps() {
        let (d, b) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert_eq!(d, U256::MAX);
        assert!(b);
    }

    #[test]
    fn mul_small() {
        let a = U256::from_u64(1 << 40);
        let b = U256::from_u64(1 << 40);
        let p = a.widening_mul(&b);
        assert_eq!(p.0[1], 1 << 16);
        assert_eq!(p.0[0], 0);
    }

    #[test]
    fn mul_max_is_correct() {
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1.
        let p = U256::MAX.widening_mul(&U256::MAX);
        assert_eq!(p.0[0], 1);
        assert_eq!(p.0[1], 0);
        assert_eq!(p.0[2], 0);
        assert_eq!(p.0[3], 0);
        assert_eq!(p.0[4], u64::MAX - 1);
        assert_eq!(p.0[5], u64::MAX);
        assert_eq!(p.0[6], u64::MAX);
        assert_eq!(p.0[7], u64::MAX);
    }

    #[test]
    fn shl1_reports_carry() {
        let top = U256([0, 0, 0, 1 << 63]);
        let (v, c) = top.shl1();
        assert_eq!(v, U256::ZERO);
        assert!(c);
    }

    #[test]
    fn shr1_moves_bits_down() {
        let v = U256([0, 1, 0, 0]);
        assert_eq!(v.shr1(), U256([1 << 63, 0, 0, 0]));
    }

    #[test]
    fn byte_roundtrip() {
        let v = U256([
            0x0123456789abcdef,
            0xfedcba9876543210,
            0xdeadbeefcafebabe,
            0x0011223344556677,
        ]);
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
    }

    #[test]
    fn hex_parse_matches_display() {
        let v = U256::from_hex("988375c084ea6e192df1a1badef3eab8e50f848f2335e64624784f933634954f")
            .unwrap();
        assert_eq!(
            v.to_string(),
            "988375c084ea6e192df1a1badef3eab8e50f848f2335e64624784f933634954f"
        );
    }

    #[test]
    fn hex_parse_short_and_odd() {
        assert_eq!(U256::from_hex("f").unwrap(), U256::from_u64(15));
        assert_eq!(U256::from_hex("10").unwrap(), U256::from_u64(16));
        assert!(U256::from_hex("").is_none());
        assert!(U256::from_hex("xyz").is_none());
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::MAX.bits(), 256);
        let v = U256([0, 0, 1, 0]);
        assert_eq!(v.bits(), 129);
        assert!(v.bit(128));
        assert!(!v.bit(127));
    }

    #[test]
    fn ordering_is_numeric() {
        let small = U256([u64::MAX, u64::MAX, u64::MAX, 0]);
        let big = U256([0, 0, 0, 1]);
        assert!(small < big);
        assert!(big > small);
        assert_eq!(big.cmp(&big), Ordering::Equal);
    }
}
