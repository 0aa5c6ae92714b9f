//! # pg-bench — table harness
//!
//! The `experiments` binary (`cargo run --release -p pg-bench --bin
//! experiments`) regenerates the *tables* of EXPERIMENTS.md: scaling
//! series with fitted growth exponents, the SAT phase transition, the
//! satisfiability verdicts for the §6.2 diagrams, and the
//! violation-detection matrix. Asymptotic bounds are not timed here: the
//! root package's `tests/complexity.rs` pins them as ratios of work
//! counters. Served numbers come from `pgbench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tables;

use std::time::{Duration, Instant};

/// Runs `f` `iters` times and returns the median wall-clock duration.
pub fn time_median<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(iters > 0);
    let mut samples: Vec<Duration> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical
/// growth exponent of a scaling series.
pub fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return f64::NAN;
    }
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.max(1e-12).ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Formats a duration in adaptive units for table cells.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_of_linear_series_is_one() {
        let pts: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((fit_exponent(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exponent_of_quadratic_series_is_two() {
        let pts: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64, 0.5 * (i * i) as f64)).collect();
        assert!((fit_exponent(&pts) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_series() {
        assert!(fit_exponent(&[]).is_nan());
        assert!(fit_exponent(&[(1.0, 1.0)]).is_nan());
    }

    #[test]
    fn median_timing_runs() {
        let d = time_median(5, || (0..1000).sum::<u64>());
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert!(fmt_duration(Duration::from_micros(2)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with("s"));
    }
}
