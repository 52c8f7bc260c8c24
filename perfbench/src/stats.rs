//! Summary statistics over latency samples.
//!
//! Failed operations enter a latency sample as `f64::INFINITY`: a request
//! that failed or was refused misses every latency limit, so it must push
//! percentiles up rather than drop out of the sample.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the value is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty sample: every caller measures at least one op.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    if n - 1 - idx < MIN_BEYOND {
        return None;
    }
    Some(sorted(xs)[idx])
}

/// The tail of a sample: its p99, or — when it holds fewer than 1000
/// samples — the highest percentile that still has [`MIN_BEYOND`] samples
/// beyond it. Returns `(percentile, value)`, `None` with too few samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let p99_idx = (0.99 * n as f64).ceil() as usize - 1;
    let idx = p99_idx.min(n - 1 - MIN_BEYOND);
    let p = if idx == p99_idx {
        99.0
    } else {
        100.0 * (idx + 1) as f64 / n as f64
    };
    Some((p, sorted(xs)[idx]))
}

/// Largest value of the sample.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Milliseconds in a duration, at full precision.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 99.0),
            None,
            "999 samples leave 9 beyond p99"
        );
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        // Rank 990 (value 989) has exactly 10 samples beyond it.
        assert_eq!(percentile(&xs, 99.0), Some(989.0));
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(89.0));
        assert_eq!(percentile(&xs, 95.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_p99_or_the_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 1979.0)));
        let xs: Vec<f64> = (0..1078).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 1067.0)));
        let xs: Vec<f64> = (0..500).map(f64::from).collect();
        // 10 samples (490..=499) lie beyond 489, the 490th of 500: p98.
        assert_eq!(tail(&xs), Some((98.0, 489.0)));
        assert_eq!(tail(&xs[..10]), None);
    }

    #[test]
    fn failures_push_the_tail_up() {
        let mut xs: Vec<f64> = (0..1000).map(|_| 1.0).collect();
        for x in xs.iter_mut().take(11) {
            *x = f64::INFINITY;
        }
        assert_eq!(percentile(&xs, 99.0), Some(f64::INFINITY));
        assert_eq!(median(&xs), 1.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(max(&[1.0, 5.0, 2.0]), 5.0);
    }
}
