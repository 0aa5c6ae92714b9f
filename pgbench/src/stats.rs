//! Order statistics for latency samples and run-to-run spread.

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place and returns the median.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    let n = values.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A percentile is only quoted when at least ten samples lie beyond it;
/// below that it is one or two outliers, not a tail.
pub fn tail_supported(samples: usize, p: f64) -> bool {
    samples as f64 * (1.0 - p) >= 10.0
}

/// First, second and third quartile by the exclusive method — the same
/// cut points as Python's `statistics.quantiles(values, n=4)`, which is
/// what the benchmark contract measures spread with.
pub fn quartiles(values: &mut [f64]) -> [f64; 3] {
    sort(values);
    let n = values.len();
    assert!(n >= 2, "quartiles need two samples");
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * delta
    })
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &mut [f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(200, 0.95));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&mut v) - 1.0).abs() < 1e-12);
    }
}
