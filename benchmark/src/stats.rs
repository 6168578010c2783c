//! Sample summaries: median, quartiles, best, and the highest percentile
//! that still has ten samples beyond it.

/// Summary of one timing metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Linear interpolation at 1-based fractional rank `pos` of sorted `xs`,
/// clamped to the ends.
fn at_rank(xs: &[f64], pos: f64) -> f64 {
    let n = xs.len();
    if pos <= 1.0 {
        return xs[0];
    }
    if pos >= n as f64 {
        return xs[n - 1];
    }
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    xs[lo - 1] + frac * (xs[lo] - xs[lo - 1])
}

/// Summarizes `samples`. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method, rank
/// `k·(n+1)/4`), the rule the acceptance spread is computed with.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarize");
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let rank = |k: f64| k * (n as f64 + 1.0) / 4.0;
    Summary {
        n,
        min: xs[0],
        max: xs[n - 1],
        median: at_rank(&xs, rank(2.0)),
        q1: at_rank(&xs, rank(1.0)),
        q3: at_rank(&xs, rank(3.0)),
    }
}

/// The sample that has exactly ten samples above it, with the percentile
/// it sits at — the highest percentile a set this size can support.
/// `None` below 20 samples, where that percentile would be under the
/// median.
pub fn high_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let index = n - 11;
    Some((100.0 * (index + 1) as f64 / n as f64, xs[index]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn high_percentile_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(high_percentile(&xs), Some((90.0, 90.0)));
        assert_eq!(high_percentile(&xs[..19]), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(high_percentile(&xs), Some((50.0, 10.0)));
    }
}
