//! Harness arithmetic: medians, guarded percentiles, quartiles.

/// Linear-interpolated quantile of `xs` (`q` in `[0, 1]`); 0 for an
/// empty slice so an unmeasured metric prints as 0.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// First quartile, median, third quartile.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    (quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75))
}

/// A tail percentile is reported only when at least ten samples lie
/// beyond it; below that the value is one or two scheduler hiccups.
pub fn percentile_guarded(xs: &[f64], q: f64) -> Option<f64> {
    // The epsilon keeps (1 - 0.9) * 100 = 9.999... from counting as 9.
    let beyond = ((1.0 - q) * xs.len() as f64 + 1e-9).floor() as usize;
    (beyond >= 10).then(|| quantile(xs, q))
}

/// Per-round throughput in MB/s (decimal MB) from each round's `(bytes,
/// seconds spent in the calls)`. Throughput metrics are the median of
/// these, so one disturbed round does not drag the figure down the way
/// a pooled bytes-over-seconds rate would.
pub fn round_rates_mbs(rounds: &[(u64, f64)]) -> Vec<f64> {
    rounds.iter().filter(|&&(_, s)| s > 0.0).map(|&(b, s)| b as f64 / 1e6 / s).collect()
}

/// `amount / s` for every duration `s`: per-call rates from per-call seconds.
pub fn per_second(amount: f64, secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| amount / s).collect()
}

/// Every sample times `factor` (seconds to milli- or microseconds).
pub fn scaled(samples: &[f64], factor: f64) -> Vec<f64> {
    samples.iter().map(|s| s * factor).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn median_of_rounds_is_not_the_pooled_rate() {
        // Two fast rounds and one slow one: the pooled rate is dragged
        // down by the outlier, the median of per-round rates is not.
        let rounds = [(100_000_000, 1.0), (100_000_000, 1.0), (100_000_000, 4.0)];
        assert_eq!(median(&round_rates_mbs(&rounds)), 100.0);
        assert_eq!(median(&round_rates_mbs(&[(1, 0.0)])), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile_guarded(&xs, 0.90), None);
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(percentile_guarded(&xs, 0.90).is_some());
        let xs: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(percentile_guarded(&xs, 0.90), Some(90.0));
        assert_eq!(percentile_guarded(&xs, 0.99), None);
    }
}
