//! Sample summaries: a median plus the highest percentile that still has
//! at least [`MIN_BEYOND`] samples beyond it, always with the count.

use stellar_stats::describe::percentile;

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples strictly beyond the `p`-th percentile's rank among `n`
/// samples, under the linear-interpolation rank `p/100 · (n−1)` that
/// [`percentile`] uses.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p / 100.0 * (n - 1) as f64).floor() as usize;
    n - 1 - rank
}

/// The highest tail percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or the median when there are too few samples for any.
pub fn tail_percentile(n: usize) -> f64 {
    TAILS
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// A summarized sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 95th percentile (the metric the benchmark pins by name).
    pub p95: f64,
    /// Samples beyond the 95th percentile.
    pub p95_beyond: usize,
    /// The highest percentile with at least [`MIN_BEYOND`] samples beyond.
    pub tail_p: f64,
    /// Its value.
    pub tail: f64,
}

/// Summarizes `xs` (NaN fields when empty).
pub fn summarize(xs: &[f64]) -> Summary {
    let tail_p = tail_percentile(xs.len());
    Summary {
        n: xs.len(),
        p50: percentile(xs, 50.0),
        p95: percentile(xs, 95.0),
        p95_beyond: beyond(xs.len(), 95.0),
        tail_p,
        tail: percentile(xs, tail_p),
    }
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_and_count_of_the_tail() {
        // n = 200: rank of p95 is 189.05, so indices 190..=199 lie beyond.
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(tail_percentile(200), 95.0);
        // n = 1000: p99 has 10 beyond (rank 989.01), p99.9 only 1.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
        assert_eq!(tail_percentile(1000), 99.0);
        // Too few samples for any tail: report the median.
        assert_eq!(tail_percentile(12), 50.0);
        assert_eq!(beyond(0, 95.0), 0);
    }

    #[test]
    fn summary_values_and_count() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.n, 200);
        assert!((s.p50 - 100.5).abs() < 1e-9);
        // Linear interpolation between the 190th and 191st order stats.
        assert!((s.p95 - 190.05).abs() < 1e-9);
        assert_eq!(s.p95_beyond, 10);
        assert_eq!(s.tail_p, 95.0);
        assert!((s.tail - s.p95).abs() < 1e-12);
    }
}
