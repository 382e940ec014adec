//! Order statistics for the benchmark's reports.

/// Sort a sample ascending (NaN never occurs: every value is a measured
/// duration or a count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median of an ascending sample (mean of the two middle values when the
/// count is even). Panics on an empty sample.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of a sample in any order.
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values))
}

/// First, second and third quartile of an ascending sample, by the
/// method of Python's `statistics.quantiles(values, n=4)` — the one the
/// acceptance driver uses, so a spread printed here is the spread it
/// sees. Needs at least two values.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread every bound is sized against.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let s = sorted(values);
    let [q1, q2, q3] = quartiles(&s);
    (q3 - q1) / q2
}

/// The tail percentile a sample can support: the `want`-th percentile
/// (nearest rank) when at least ten samples lie beyond it, else the
/// highest percentile that still has ten beyond it, and never less than
/// the median. Returns the value and the percentile actually reported,
/// as a fraction.
pub fn tail_percentile(sorted: &[f64], want: f64) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "percentile of an empty sample");
    let wanted_rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted_rank.min(n.saturating_sub(10));
    if rank * 2 <= n {
        return (median(sorted), 0.5);
    }
    (sorted[rank - 1], rank as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), [2.5, 4.0, 5.5]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn relative_iqr_sorts_first() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(relative_iqr(&v), 1.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        // 100 samples: rank 90 has exactly ten beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.90), (90.0, 0.90));
        // 1000 samples: plenty beyond, the wanted percentile stands.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.90), (900.0, 0.90));
    }

    #[test]
    fn short_samples_fall_back_to_a_lower_percentile() {
        // 50 samples: rank 45 would leave five beyond; rank 40 leaves ten.
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.90), (40.0, 0.80));
        // 20 samples or fewer: ten beyond would sit below the median.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.90), (10.5, 0.5));
        let v: Vec<f64> = (1..=3).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.90), (2.0, 0.5));
    }
}
