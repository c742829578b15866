//! Order statistics over measured samples.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in `0..=100`); `0.0` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many samples lie strictly above the nearest-rank `p`th percentile:
/// the tail a reported percentile rests on.
pub fn samples_beyond(values: &[f64], p: f64) -> usize {
    let cut = percentile(values, p);
    values.iter().filter(|&&v| v > cut).count()
}

/// First and third quartiles by the exclusive method, the default of
/// Python's `statistics.quantiles(values, n=4)`; needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    // Python's formula, including its linear extrapolation at the ends.
    let m = (n + 1) as i64;
    let at = |i: i64| -> f64 {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(samples_beyond(&v, 99.0), 1);
        let v: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(samples_beyond(&v, 99.0), 11);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9], n=4) == [1.0, 5.0, 9.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0]), Some((1.0, 9.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
