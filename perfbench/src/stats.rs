//! Order statistics for latencies and run-to-run spreads.

/// Samples that must lie beyond a reported percentile: a p90 needs at
/// least 100 samples, a p50 at least 20.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-quantile (`0 < p < 1`) of `samples` by nearest rank.
///
/// Refuses when fewer than [`TAIL_SAMPLES`] samples would lie beyond it,
/// so a tail figure never rests on a handful of values.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = samples.len();
    // Nearest rank, with a guard against `p * n` landing a hair above an
    // integer in floating point.
    let rank = ((p * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < TAIL_SAMPLES {
        return Err(format!(
            "p{} needs at least {} samples beyond it; have {n} samples",
            p * 100.0,
            TAIL_SAMPLES
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points of `values`, as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    let m = ld + 1;
    let n = 4;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the benchmark's bounds are checked against.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_refused_below_100_samples() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&xs, 0.9).is_err());
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Ok(89.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&xs, 0.5).is_err());
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Ok(10.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn relative_iqr_is_scale_free() {
        let xs = [10.0, 11.0, 12.0, 13.0, 14.0];
        let ys: Vec<f64> = xs.iter().map(|x| x * 1000.0).collect();
        assert!((relative_iqr(&xs) - relative_iqr(&ys)).abs() < 1e-12);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
