//! Sample statistics: medians, interpolated percentiles, and the rule for
//! which tail percentile a sample is large enough to support.

/// Median of `xs` (mean of the middle pair for even counts); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile (0–100) with linear interpolation between the
/// order statistics; NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Percentiles a report may quote, lowest first.
const TAILS: [f64; 5] = [80.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAILS`] that still has at least ten of `n`
/// samples beyond it, or `None` when even the lowest does not (fewer than
/// 50 samples): a p99 over 40 samples is one sample, not a percentile.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(xs, n=4)` (the driver's): rank `(n + 1) · q`,
/// interpolated, clamped to the sample.  Both are the one value when
/// there is only one.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let rank = ((v.len() + 1) as f64 * q - 1.0).clamp(0.0, (v.len() - 1) as f64);
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
    };
    if v.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (at(0.25), at(0.75))
    }
}

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let (q1, q3) = quartiles(xs);
        Summary {
            median: median(xs),
            q1,
            q3,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: xs.len(),
        }
    }

    /// Distance between the quartiles ÷ median: the spread `--compare`
    /// holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.n < 2 || self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 80.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 11.0);
        assert_eq!(percentile(&[1.0, 2.0], 25.0), 1.25);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(10), None);
        assert_eq!(supported_tail(49), None);
        assert_eq!(supported_tail(50), Some(80.0));
        assert_eq!(supported_tail(99), Some(80.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // few samples: ranks are clamped to the sample
        assert_eq!(quartiles(&[3.0, 1.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn summary_counts_and_spreads() {
        let s = Summary::of(&[2.0, 4.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 2.0, 4.0, 3));
        assert_eq!((s.q1, s.q3), (2.0, 4.0));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[5.0]).spread(), 0.0);
        // one outlier among ten does not widen the spread
        let mut xs = vec![10.0; 9];
        xs.push(100.0);
        assert_eq!(Summary::of(&xs).spread(), 0.0);
    }
}
