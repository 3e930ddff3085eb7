//! Medians and quartiles of small samples.

/// The median; `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method),
/// because that is what the pipeline applies to this benchmark's
/// output. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the spread figure the
/// pipeline holds against each metric's bound. Zero for a constant
/// sample (also when that constant is zero).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    Some(if q3 == q1 { 0.0 } else { (q3 - q1) / med.abs() })
}

/// The largest value; `NaN` for an empty sample.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// The smallest value; `NaN` for an empty sample.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([15.3, 15.5, 15.6, 15.6, 18.9], n=4)
        //   == [15.4, 15.6, 17.25]
        let (q1, q3) = quartiles(&[15.6, 18.9, 15.3, 15.6, 15.5]).unwrap();
        assert!((q1 - 15.4).abs() < 1e-12 && (q3 - 17.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(1.0));
        assert_eq!(spread(&[40.0; 5]), Some(0.0));
        assert_eq!(spread(&[0.0; 5]), Some(0.0));
    }

    #[test]
    fn extremes_of_a_sample() {
        assert_eq!(max(&[5.0, 1.0, 7.5, 2.0]), 7.5);
        assert_eq!(min(&[5.0, 1.0, 7.5, 2.0]), 1.0);
        assert!(max(&[]).is_nan() && min(&[]).is_nan());
    }
}
