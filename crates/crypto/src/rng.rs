//! Deterministic, seedable pseudo-random number generation.
//!
//! The whole workspace draws randomness from this module and nowhere
//! else: no OS entropy, no `rand` crate, no global state. Every
//! simulation, test, and workload generator threads an explicit [`Rng`]
//! seeded from a `u64`, so any run is exactly reproducible from its seed
//! — the property `clippy.toml` (rule D2: no `RandomState`) and the
//! lockfile check in `tests/policy.rs` (rule H1: no `rand` crate) enforce
//! mechanically.
//!
//! The generator is xoshiro256** (Blackman & Vigna), a small, fast,
//! well-studied non-cryptographic PRNG with a 2^256 − 1 period. Seeds are
//! expanded with SplitMix64 so that nearby `u64` seeds produce unrelated
//! streams. None of this is cryptographic; key material comes from
//! [`crate::schnorr`], not from here.

/// The workspace PRNG: xoshiro256** seeded via SplitMix64.
///
/// The API mirrors the subset of the `rand` crate the codebase used
/// before the hermeticity refactor (`random`, `random_range`,
/// `random_bool`), plus `shuffle`, `choose` and `fill_bytes` helpers.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

/// SplitMix64 step: the standard seed-expansion generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed (SplitMix64-expanded).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Creates a generator from 32 bytes of seed material.
    ///
    /// The bytes are folded through SplitMix64 so an all-zero (or
    /// otherwise degenerate) seed still yields a usable state.
    pub fn from_seed(seed: [u8; 32]) -> Rng {
        let mut sm = 0xa076_1d64_78bd_642fu64;
        let mut s = [0u64; 4];
        for (i, word) in s.iter_mut().enumerate() {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
            sm ^= u64::from_le_bytes(chunk);
            *word = splitmix64(&mut sm);
        }
        Rng { s }
    }

    /// The next raw 64-bit output (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// The next raw 128-bit output.
    pub fn next_u128(&mut self) -> u128 {
        (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64())
    }

    /// A uniform value of any [`FromRng`] type (integers, `bool`, floats).
    pub fn random<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// A uniform value in `range` (half-open `a..b` or inclusive `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.random_range(0..=i);
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of `slice`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.random_range(0..slice.len())])
        }
    }

    /// Fills `dst` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, dst: &mut [u8]) {
        for chunk in dst.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// An independent generator split off from this one (for sub-streams
    /// that must not perturb the parent's sequence length).
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }

    /// Uniform in `[0, span)` by rejection sampling (no modulo bias).
    fn below_u64(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        // Reject the low values that would wrap unevenly: the classic
        // arc4random_uniform threshold, `2^64 mod span`.
        let threshold = span.wrapping_neg() % span;
        loop {
            let x = self.next_u64();
            if x >= threshold {
                return x % span;
            }
        }
    }

    /// Uniform in `[0, span)` for 128-bit spans.
    fn below_u128(&mut self, span: u128) -> u128 {
        debug_assert!(span > 0);
        if let Ok(small) = u64::try_from(span) {
            return u128::from(self.below_u64(small));
        }
        let threshold = span.wrapping_neg() % span;
        loop {
            let x = self.next_u128();
            if x >= threshold {
                return x % span;
            }
        }
    }
}

/// Types a [`Rng`] can produce uniformly over their whole domain
/// (floats: uniform in `[0, 1)`).
pub trait FromRng {
    /// Draws one value from `rng`.
    fn from_rng(rng: &mut Rng) -> Self;
}

macro_rules! impl_from_rng_int {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            fn from_rng(rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_from_rng_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRng for u128 {
    fn from_rng(rng: &mut Rng) -> u128 {
        rng.next_u128()
    }
}

impl FromRng for i128 {
    fn from_rng(rng: &mut Rng) -> i128 {
        rng.next_u128() as i128
    }
}

impl FromRng for bool {
    fn from_rng(rng: &mut Rng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    fn from_rng(rng: &mut Rng) -> f64 {
        rng.unit_f64()
    }
}

impl FromRng for f32 {
    fn from_rng(rng: &mut Rng) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges a [`Rng`] can sample uniformly.
pub trait SampleRange<T> {
    /// Draws one value in the range from `rng`.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty => $via:ident : $wide:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide);
                self.start.wrapping_add(rng.$via(span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as $wide)
                    .wrapping_sub(lo as $wide)
                    .wrapping_add(1);
                if span == 0 {
                    // Full-domain inclusive range.
                    return rng.random::<$t>();
                }
                lo.wrapping_add(rng.$via(span) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(
    u8 => below_u64 : u64,
    u16 => below_u64 : u64,
    u32 => below_u64 : u64,
    u64 => below_u64 : u64,
    usize => below_u64 : u64,
    i32 => below_u64 : u64,
    i64 => below_u64 : u64,
    u128 => below_u128 : u128,
    i128 => below_u128 : u128
);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let x = self.start + rng.unit_f64() * (self.end - self.start);
        // Floating rounding can land exactly on `end`; nudge back inside.
        if x >= self.end {
            self.start
        } else {
            x
        }
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + rng.unit_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn from_seed_tolerates_zero_bytes() {
        let mut z = Rng::from_seed([0u8; 32]);
        let first = z.next_u64();
        assert_ne!(first, 0);
        assert_ne!(first, z.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: usize = rng.random_range(3..17);
            assert!((3..17).contains(&x));
            let y: u128 = rng.random_range(0..1024);
            assert!(y < 1024);
            let z: usize = rng.random_range(0..=5);
            assert!(z <= 5);
            let f: f64 = rng.random_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&f));
            let g: f64 = rng.random_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&g));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = Rng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.random_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn unit_f64_is_uniformish() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.unit_f64()).sum::<f64>() / n as f64;
        assert!((0.49..0.51).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| rng.random_bool(0.3)).count();
        assert!((29_000..31_000).contains(&hits), "hits = {hits}");
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(17);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not stay sorted");
    }

    #[test]
    fn fill_bytes_fills_every_byte() {
        let mut rng = Rng::seed_from_u64(19);
        let mut buf = [0u8; 37];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        let mut buf2 = [0u8; 37];
        Rng::seed_from_u64(19).fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn choose_and_fork() {
        let mut rng = Rng::seed_from_u64(23);
        assert!(rng.choose::<u8>(&[]).is_none());
        let xs = [1, 2, 3];
        assert!(xs.contains(rng.choose(&xs).unwrap()));
        let mut f1 = rng.fork();
        let mut f2 = rng.fork();
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn full_domain_inclusive_range() {
        let mut rng = Rng::seed_from_u64(29);
        // Must not panic or loop forever.
        let _: u64 = rng.random_range(0..=u64::MAX);
        let _: u8 = rng.random_range(0..=u8::MAX);
    }
}
