//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), because that is what the harness
//! judging this benchmark computes; using the same rule here means the
//! spreads printed by a run are the spreads it will be held to.

/// Median, quartiles and range of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median — the value the metric reports.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the
    /// median is 0).
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `i`-th of the three quartile cut points of sorted data,
/// `statistics.quantiles(data, n=4)[i-1]`.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Summarises a non-empty sample set.
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
#[must_use]
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let s = sorted(samples);
    Summary {
        n: s.len(),
        min: s[0],
        q1: quartile(&s, 1),
        median: quartile(&s, 2),
        q3: quartile(&s, 3),
        max: s[s.len() - 1],
    }
}

/// Median of a non-empty sample set.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The `p`-th percentile (0 < p < 100) by nearest rank.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "a percentile needs samples");
    let s = sorted(samples);
    // The epsilon keeps 99.9% of 1000 at rank 999, not 999.0000000001 → 1000.
    let rank = ((p / 100.0) * s.len() as f64 - 1e-9).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The tail percentiles this benchmark reports, lowest first.
const TAILS: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// The highest tail percentile that still has at least ten samples
/// beyond it — a p99 read off 200 samples is two samples' worth of
/// noise. `None` when even p90 is not supported (fewer than 100
/// samples).
#[must_use]
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rfind(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 2.0, 2));
    }

    #[test]
    fn a_single_sample_has_no_spread() {
        let s = summarize(&[7.5]);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (1, 7.5, 7.5, 7.5, 7.5, 7.5)
        );
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(summarize(&v).spread(), (8.25 - 2.75) / 5.5);
        assert_eq!(summarize(&[0.0]).spread(), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 99.9), 999.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
