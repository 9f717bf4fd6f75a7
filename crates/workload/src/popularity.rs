//! Lookup-popularity distributions (Zipf) for the caching experiments.

use past_crypto::rng::Rng;

/// A Zipf sampler over ranks `0..n` with exponent `s`.
///
/// Built with an explicit cumulative table (n is at most a few hundred
/// thousand in our experiments), giving exact sampling.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `n` items with exponent `s` (s = 1.0 is the
    /// classic web-trace fit).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero items");
        assert!(s >= 0.0, "negative exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Samples a rank in `0..n` (0 = most popular).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the sampler covers no items (never: `new` forbids it).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_crypto::rng::Rng;

    #[test]
    fn rank_zero_is_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::seed_from_u64(1);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // Zipf(1.0): item 0 should get ~1/H(100) ~ 19% of traffic.
        let frac0 = counts[0] as f64 / 50_000.0;
        assert!((0.12..0.28).contains(&frac0), "frac0 = {frac0}");
    }

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(50, 0.0);
        let mut rng = Rng::seed_from_u64(2);
        let mut counts = [0u32; 50];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.5, "should be near-uniform: {min}..{max}");
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(3, 1.2);
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..1_000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "zero items")]
    fn zero_items_panics() {
        Zipf::new(0, 1.0);
    }
}
