//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank rule, so every reported percentile
//! is a sample that was actually measured. A percentile is only worth
//! reporting when enough samples lie above it to pin it down; the rule
//! used throughout is at least [`MIN_TAIL`] samples strictly above.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_TAIL: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`); `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median (the mean of the two middle samples when their count is
/// even); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// How many samples lie strictly above the `p`-th percentile.
pub fn samples_above(xs: &[f64], p: f64) -> usize {
    match percentile(xs, p) {
        Some(q) => xs.iter().filter(|&&x| x > q).count(),
        None => 0,
    }
}

/// Whether the `p`-th percentile has at least [`MIN_TAIL`] samples
/// above it.
pub fn reportable(xs: &[f64], p: f64) -> bool {
    samples_above(xs, p) >= MIN_TAIL
}

/// Samples a run needs so that the `p`-th percentile (`p < 100`) has
/// [`MIN_TAIL`] samples above it, ties aside.
pub fn samples_needed(p: usize) -> usize {
    (MIN_TAIL * 100).div_ceil(100 - p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&xs, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_needs_ten_samples_above_it() {
        assert_eq!(samples_needed(90), 100);
        assert_eq!(samples_needed(50), 20);
        let short: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(!reportable(&short, 90.0));
        let enough: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(samples_above(&enough, 90.0), 10);
        assert!(reportable(&enough, 90.0));
        // Ties at the percentile do not count as above it.
        let mut tied = vec![1.0; 95];
        tied.extend([2.0; 5]);
        assert_eq!(samples_above(&tied, 90.0), 5);
        assert!(!reportable(&tied, 90.0));
    }
}
