//! Summary statistics over measured samples.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it: a tail percentile read
/// from a handful of samples is not a measurement.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for even counts), 0 for
/// an empty slice. Unlike [`percentile`] it has no sample floor: it
/// summarises a few repeated runs, not a latency distribution.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean, 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The paper's footnote-10 average deviation: mean `|x − x̄|`.
pub fn mean_abs_deviation(values: &[f64]) -> f64 {
    let m = mean(values);
    mean(&values.iter().map(|v| (v - m).abs()).collect::<Vec<_>>())
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 is rank 990, with exactly ten above it.
        assert_eq!(percentile(&values, 0.99), Some(990.0));
        // One sample fewer leaves nine beyond p99.
        assert_eq!(percentile(&values[..999], 0.99), None);
        assert_eq!(percentile(&values[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&values[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_deviation() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((mean_abs_deviation(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
