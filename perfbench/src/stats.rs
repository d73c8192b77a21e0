//! Percentiles under the benchmark's sample rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so
//! a p99 is never just the maximum of a short run.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles are given in thousandths (`990` is p99) so that ranks
/// are exact integers.
pub type PerMille = usize;

/// Smallest sample count that supports percentile `p`.
pub fn min_samples(p: PerMille) -> usize {
    (MIN_BEYOND..)
        .find(|&n| n - rank(p, n) >= MIN_BEYOND)
        .expect("unbounded search")
}

/// Nearest-rank position (1-based) of percentile `p` among `n > 0` samples.
fn rank(p: PerMille, n: usize) -> usize {
    (p * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: PerMille) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - rank(p, n) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, n) - 1])
}

/// Median of a small set (set-up repetitions); the mean of the middle
/// pair for an even count.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(500), 20);
        assert_eq!(min_samples(900), 100);
        assert_eq!(min_samples(990), 1000);
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 990), None, "999 samples leave 9 beyond p99");
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 990), Some(990.0));
        assert_eq!(xs.iter().filter(|&&x| x > 990.0).count(), 10);
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 900), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 900), Some(90.0));
        assert_eq!(percentile(&xs, 500), Some(50.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        assert_eq!(percentile(&xs, 500), Some(99.0));
        assert_eq!(percentile(&xs, 900), Some(179.0));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
