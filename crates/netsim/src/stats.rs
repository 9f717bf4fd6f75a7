//! Summary statistics for experiment reporting.

/// Summary of a sample: mean, percentiles, extrema, coefficient of
/// variation.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Standard deviation (population).
    pub stddev: f64,
}

impl Summary {
    /// Coefficient of variation (stddev / mean); 0 for a zero mean.
    pub fn cov(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

/// Computes a [`Summary`] of `values`. Returns `None` for an empty sample.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    // total_cmp: a total order even on NaN (rule D4), so the sort can
    // neither panic nor depend on input order.
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mean = sorted.iter().sum::<f64>() / n as f64;
    let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
    // Nearest-rank percentile: the p-th percentile is the ⌈p·n/100⌉-th
    // smallest sample (1-based), computed in integer arithmetic. The
    // previous float form `((p/100)·(n-1)).round()` silently mixed
    // nearest-rank with linear-interpolation index semantics (mis-
    // picking on small n) and loses integer precision above 2^53
    // samples; u128 keeps the product exact for any in-memory n.
    let pct = |p: u32| -> f64 {
        let rank = (n as u128 * u128::from(p)).div_ceil(100).max(1);
        sorted[(rank - 1) as usize]
    };
    Some(Summary {
        n,
        mean,
        p50: pct(50),
        p95: pct(95),
        p99: pct(99),
        min: sorted[0],
        max: sorted[n - 1],
        stddev: var.sqrt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.stddev - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn summary_single_value() {
        let s = summarize(&[7.0]).unwrap();
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.p99, 7.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.cov(), 0.0);
    }

    #[test]
    fn percentiles_unsorted_input() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p95, 5.0);
    }

    #[test]
    fn percentile_nearest_rank_exact_on_small_n() {
        // 10 samples 1..=10: nearest-rank p-th percentile of this
        // sample is ⌈p/10⌉, with no interpolation.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.p50, 5.0);
        assert_eq!(s.p95, 10.0);
        assert_eq!(s.p99, 10.0);
        // Two samples: p50 must be the first, not the midpoint.
        let s = summarize(&[1.0, 9.0]).unwrap();
        assert_eq!(s.p50, 1.0);
    }
}
