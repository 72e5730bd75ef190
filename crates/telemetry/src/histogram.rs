//! Latency histograms with percentile queries.
//!
//! This is the simulator's former `LatencyStats` type, folded into the
//! telemetry crate so every layer shares one sample collector;
//! `metro_sim` re-exports it under the old name.

/// An online collector of latency samples with percentile queries.
///
/// Latencies are integer cycles, so the collector is the sorted
/// multiset itself: one `(value, count)` run per distinct latency,
/// ascending. Every query is exact, memory is bounded by the distinct
/// values seen rather than by the messages delivered, and two
/// collectors fed the same samples in any order are equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `(value, count)`, strictly ascending by value, every count ≥ 1.
    runs: Vec<(u64, u64)>,
}

impl Histogram {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: u64) {
        match self
            .runs
            .binary_search_by_key(&latency, |&(value, _)| value)
        {
            Ok(i) => self.runs[i].1 += 1,
            Err(i) => self.runs.insert(i, (latency, 1)),
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.runs.iter().map(|&(_, count)| count).sum::<u64>() as usize
    }

    /// Arithmetic mean, or 0 with no samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.runs.iter().map(|&(value, count)| value * count).sum();
        sum as f64 / self.count() as f64
    }

    /// The `p`-th percentile (0–100, nearest-rank), or 0 with no
    /// samples.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
        let mut seen = 0;
        self.runs
            .iter()
            .find(|&&(_, count)| {
                seen += count as usize;
                seen >= rank
            })
            .map_or(0, |&(value, _)| value)
    }

    /// Buckets the samples into a histogram of the given bucket width:
    /// `(bucket_start, count)` pairs covering min..=max, empty buckets
    /// included.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width == 0`.
    #[must_use]
    pub fn histogram(&self, bucket_width: u64) -> Vec<(u64, usize)> {
        assert!(bucket_width > 0, "bucket width must be nonzero");
        if self.runs.is_empty() {
            return Vec::new();
        }
        let lo = self.min() / bucket_width * bucket_width;
        let hi = self.max();
        let buckets = ((hi - lo) / bucket_width + 1) as usize;
        let mut hist = vec![0usize; buckets];
        for &(value, count) in &self.runs {
            hist[((value - lo) / bucket_width) as usize] += count as usize;
        }
        hist.into_iter()
            .enumerate()
            .map(|(k, c)| (lo + k as u64 * bucket_width, c))
            .collect()
    }

    /// Minimum sample, or 0.
    #[must_use]
    pub fn min(&self) -> u64 {
        self.runs.first().map_or(0, |&(value, _)| value)
    }

    /// Maximum sample, or 0.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.runs.last().map_or(0, |&(value, _)| value)
    }

    /// Condenses the distribution to the fixed summary a
    /// [`crate::TelemetrySnapshot`] carries.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count() as u64,
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
        }
    }
}

// The runs: `2 · distinct + 1` words, whatever the number of samples.
// Restore refuses runs a collector cannot hold — values not strictly
// ascending, a zero count — or whose sample count or sample sum
// overflows the `u64` that `count` and `mean` add them up in.
crate::state_walk! {
    impl State for Histogram => |this, s| {
        let Histogram { runs } = this;
        let (mut below, mut samples, mut sum) = (None, 0u64, 0u64);
        s.seq(runs, |s, (value, count)| {
            s.u64(value)?;
            s.check(
                || below.is_none_or(|b| *value > b),
                format_args!("latency {value} does not ascend"),
            )?;
            below = Some(*value);
            s.u64(count)?;
            s.check(|| *count != 0, format_args!("latency {value} has no samples"))?;
            // The running totals live in the checks: restore only.
            s.check(
                || samples.checked_add(*count).map(|n| samples = n).is_some(),
                "sample count overflows u64",
            )?;
            s.check(
                || {
                    let add = value.checked_mul(*count).and_then(|v| sum.checked_add(v));
                    add.map(|n| sum = n).is_some()
                },
                "sample sum overflows u64",
            )
        })
    }
}

/// The fixed latency summary embedded in snapshots: sample count, mean,
/// extrema, and the three percentiles the paper's tables quote.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of samples folded in.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: u64,
    /// Maximum sample.
    pub max: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_condenses_the_distribution() {
        let mut h = Histogram::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert!((s.mean - 55.0).abs() < 1e-9);
        assert_eq!((s.min, s.max), (10, 100));
        assert_eq!((s.p50, s.p95, s.p99), (50, 100, 100));
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(Histogram::new().summary(), HistogramSummary::default());
    }

    #[test]
    fn restore_refuses_runs_no_collector_can_hold() {
        use crate::state::{State, StateError, StateReader, StateWriter};
        let refused = |runs: &[u64]| {
            let mut w = StateWriter::new();
            w.section("netstats").unwrap();
            w.usize(&(runs.len() / 2)).unwrap();
            runs.iter().for_each(|v| w.u64(v).unwrap());
            let words = w.into_words();
            let mut r = StateReader::new(&words);
            r.section("netstats").unwrap();
            match Histogram::new().restore_state(&mut r) {
                Err(StateError::BadValue {
                    section, detail, ..
                }) => {
                    assert_eq!(section, "netstats");
                    detail
                }
                other => panic!("{runs:?} restored as {other:?}"),
            }
        };
        assert!(refused(&[30, 2, 30, 1]).contains("does not ascend"));
        assert!(refused(&[30, 2, 29, 1]).contains("does not ascend"));
        assert!(refused(&[30, 0]).contains("no samples"));
        assert!(refused(&[0, u64::MAX, 1, 1]).contains("sample count overflows"));
        assert!(refused(&[1 << 32, 1 << 32]).contains("sample sum overflows"));
        assert!(refused(&[1, u64::MAX - 1, 2, 1]).contains("sample sum overflows"));
    }
}
