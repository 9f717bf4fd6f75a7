//! 128-bit circular node identifiers and digit arithmetic.
//!
//! PAST assigns each node "a 128-bit node identifier (nodeId)" and routes a
//! fileId "towards the node whose nodeId is numerically closest to the 128
//! most significant bits of the fileId". For routing, "nodeIds and fileIds
//! are thought of as a sequence of digits with base 2^b".

use std::fmt;

/// A 128-bit identifier on the Pastry ring.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Id(pub u128);

/// Number of bits in an [`Id`].
pub const ID_BITS: usize = 128;

impl Id {
    /// Builds an id from 16 big-endian bytes.
    pub fn from_be_bytes(bytes: [u8; 16]) -> Id {
        Id(u128::from_be_bytes(bytes))
    }

    /// The `i`-th digit counted from the most significant end, base `2^b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` does not divide 128 or `i` is out of range.
    pub fn digit(&self, i: usize, b: u8) -> u8 {
        let b = b as usize;
        assert!(b > 0 && 128 % b == 0, "b must divide 128");
        assert!(i < 128 / b, "digit index out of range");
        let shift = 128 - (i + 1) * b;
        ((self.0 >> shift) & ((1u128 << b) - 1)) as u8
    }

    /// Length (in digits of base `2^b`) of the longest common prefix of two
    /// ids.
    pub fn prefix_len(&self, other: &Id, b: u8) -> usize {
        let xor = self.0 ^ other.0;
        if xor == 0 {
            return 128 / b as usize;
        }
        let lead_bits = xor.leading_zeros() as usize;
        lead_bits / b as usize
    }

    /// Clockwise distance from `self` to `other` on the ring.
    pub fn cw_dist(&self, other: &Id) -> u128 {
        other.0.wrapping_sub(self.0)
    }

    /// Minimal (ring) distance between two ids.
    pub fn ring_dist(&self, other: &Id) -> u128 {
        let cw = self.cw_dist(other);
        let ccw = other.cw_dist(self);
        cw.min(ccw)
    }

    /// True if `self` lies on the clockwise arc from `from` to `to`
    /// (inclusive on both ends).
    pub fn on_cw_arc(&self, from: &Id, to: &Id) -> bool {
        from.cw_dist(self) <= from.cw_dist(to)
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Protocol parameters for a Pastry network.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Bits per digit (`b`); the paper's "configuration parameter with
    /// typical value 4". Must divide 128.
    pub b: u8,
    /// Leaf set size (`l`); the paper's "configuration parameter with
    /// typical value 32". Must be even and ≥ 2.
    pub leaf_len: usize,
    /// Neighborhood set size (`M`).
    pub neighborhood_len: usize,
    /// Probability of deviating from the best next hop when several valid
    /// next hops exist (the paper's randomized routing; "the probability
    /// distribution is heavily biased towards the best choice"). `0.0`
    /// disables randomization.
    pub route_randomization: f64,
}

/// Hop TTL on routed messages. Legitimate routes take O(log N) hops;
/// the TTL only fires when overlapping failures leave leaf sets
/// inconsistent enough for a routing cycle (the situation behind the
/// paper's "eventual delivery is guaranteed unless ⌊l/2⌋ adjacent
/// nodes fail" caveat). Such messages are dropped and the client
/// retries.
pub const MAX_ROUTE_HOPS: u32 = 128;

// The TTL must allow legitimate routes.
const _: () = assert!(MAX_ROUTE_HOPS >= 8);

impl Default for Config {
    fn default() -> Config {
        Config {
            b: 4,
            leaf_len: 16,
            neighborhood_len: 16,
            route_randomization: 0.0,
        }
    }
}

impl Config {
    /// A configuration matching the HotOS paper's "typical values":
    /// `b = 4`, `l = 32`, `M = 32`.
    pub fn paper_typical() -> Config {
        Config {
            b: 4,
            leaf_len: 32,
            neighborhood_len: 32,
            route_randomization: 0.0,
        }
    }

    /// Number of digits in an id under this configuration.
    pub fn digits(&self) -> usize {
        128 / self.b as usize
    }

    /// Number of columns per routing-table row (`2^b`).
    pub fn cols(&self) -> usize {
        1 << self.b
    }

    /// Validates the invariants on the parameters.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (`b` not a divisor of 128 or
    /// above 8, odd leaf set).
    pub fn validate(&self) {
        assert!(
            self.b > 0 && 128 % self.b as usize == 0,
            "b must divide 128"
        );
        assert!(self.b <= 8, "b must be at most 8 (a digit is a u8)");
        assert!(
            self.leaf_len >= 2 && self.leaf_len.is_multiple_of(2),
            "leaf set size must be even and >= 2"
        );
        assert!(
            (0.0..=1.0).contains(&self.route_randomization),
            "randomization must be a probability"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_extract_from_msb() {
        let id = Id(0xfedc_ba98_7654_3210_0123_4567_89ab_cdef);
        assert_eq!(id.digit(0, 4), 0xf);
        assert_eq!(id.digit(1, 4), 0xe);
        assert_eq!(id.digit(31, 4), 0xf);
        assert_eq!(id.digit(0, 8), 0xfe);
        assert_eq!(id.digit(15, 8), 0xef);
        assert_eq!(id.digit(0, 1), 1);
    }

    #[test]
    #[should_panic(expected = "digit index")]
    fn digit_out_of_range_panics() {
        Id(0).digit(32, 4);
    }

    #[test]
    fn prefix_len_counts_shared_digits() {
        let a = Id(0xabcd_0000_0000_0000_0000_0000_0000_0000);
        let b = Id(0xabce_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(a.prefix_len(&b, 4), 3);
        assert_eq!(a.prefix_len(&a, 4), 32);
        let c = Id(0x1bcd_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(a.prefix_len(&c, 4), 0);
    }

    #[test]
    fn prefix_len_respects_digit_width() {
        // Ids differing in bit 126 share 0 digits at b=4 but 1 digit at b=1.
        let a = Id(0);
        let b = Id(1u128 << 126);
        assert_eq!(a.prefix_len(&b, 4), 0);
        assert_eq!(a.prefix_len(&b, 1), 1);
    }

    #[test]
    fn ring_distance_wraps() {
        let a = Id(5);
        let b = Id(u128::MAX - 4); // 10 apart across zero
        assert_eq!(a.ring_dist(&b), 10);
        assert_eq!(b.ring_dist(&a), 10);
        assert_eq!(a.ring_dist(&a), 0);
    }

    #[test]
    fn cw_dist_is_directional() {
        let a = Id(10);
        let b = Id(3);
        assert_eq!(b.cw_dist(&a), 7);
        assert_eq!(a.cw_dist(&b), u128::MAX - 6);
    }

    #[test]
    fn arcs() {
        let lo = Id(10);
        let hi = Id(20);
        assert!(Id(15).on_cw_arc(&lo, &hi));
        assert!(Id(10).on_cw_arc(&lo, &hi));
        assert!(Id(20).on_cw_arc(&lo, &hi));
        assert!(!Id(25).on_cw_arc(&lo, &hi));
        // Arc crossing zero.
        let lo = Id(u128::MAX - 5);
        let hi = Id(5);
        assert!(Id(0).on_cw_arc(&lo, &hi));
        assert!(Id(u128::MAX).on_cw_arc(&lo, &hi));
        assert!(!Id(100).on_cw_arc(&lo, &hi));
    }

    #[test]
    fn config_defaults_are_valid() {
        Config::default().validate();
        Config::paper_typical().validate();
        assert_eq!(Config::default().digits(), 32);
        assert_eq!(Config::default().cols(), 16);
        assert_eq!(Config::paper_typical().leaf_len, 32);
    }

    #[test]
    #[should_panic(expected = "b must divide")]
    fn bad_b_rejected() {
        Config {
            b: 3,
            ..Config::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "at most 8")]
    fn b_wider_than_a_digit_rejected() {
        Config {
            b: 16,
            ..Config::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "leaf set")]
    fn odd_leaf_rejected() {
        Config {
            leaf_len: 7,
            ..Config::default()
        }
        .validate();
    }
}
