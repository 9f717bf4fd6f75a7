//! Fixed-bucket integer histograms with exact rank-based percentiles.

/// A fixed-bucket integer histogram with a saturating last bucket.
///
/// Values land in bucket `min(v / width, n - 1)`; the final bucket
/// absorbs everything at or above `width * (n - 1)`. Percentiles are
/// rank-based — [`Histogram::percentile`] returns the lower bound of
/// the bucket containing the `⌈p/100 · count⌉`-th smallest sample,
/// which is *exact* for width-1 histograms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    buckets: Vec<u64>,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new(1, 1)
    }
}

impl Histogram {
    /// A histogram of `nbuckets` buckets of `width` each.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `nbuckets` is zero.
    pub fn new(width: u64, nbuckets: usize) -> Histogram {
        assert!(width > 0, "bucket width must be positive");
        assert!(nbuckets > 0, "need at least one bucket");
        Histogram {
            width,
            buckets: vec![0; nbuckets],
            count: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let i = ((v / self.width) as usize).min(self.buckets.len() - 1);
        self.buckets[i] += 1;
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Bucket width.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Raw bucket counts (last bucket saturates).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// True if any sample landed in the saturating last bucket, i.e.
    /// reported upper percentiles may be clipped.
    pub fn saturated(&self) -> bool {
        self.buckets.last().is_some_and(|&c| c > 0)
    }

    /// Lower bound of the bucket holding the `⌈p/100 · count⌉`-th
    /// smallest sample (`p` in `1..=100`); `None` on an empty
    /// histogram.
    pub fn percentile(&self, p: u32) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // Rank in u128: `count * p` overflows u64 once count exceeds
        // u64::MAX / 100, which a long-lived aggregated histogram can
        // legitimately reach.
        let p = u128::from(p.clamp(1, 100));
        let rank = (u128::from(self.count) * p).div_ceil(100).max(1);
        let mut cum = 0u128;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += u128::from(c);
            if cum >= rank {
                return Some(i as u64 * self.width);
            }
        }
        Some((self.buckets.len() as u64 - 1) * self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rank_survives_huge_counts() {
        // A count near u64::MAX used to overflow `count * p` and
        // panic (debug) or mis-rank (release); rank math is u128 now.
        let mut h = Histogram::new(1, 4);
        h.buckets = vec![u64::MAX / 2, u64::MAX / 2 - 2, 2, 1];
        h.count = u64::MAX;
        // rank(50) = 2^63, one past the first bucket's 2^63 - 1.
        assert_eq!(h.percentile(50), Some(1));
        assert_eq!(h.percentile(99), Some(1));
        assert_eq!(h.percentile(100), Some(3));
    }
}
