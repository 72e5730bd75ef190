//! Property-based tests: the `(value, count)` [`Histogram`] answers
//! every query exactly as a sorted list of its samples would.

use metro_telemetry::{Histogram, HistogramSummary, State, StateReader, StateWriter};
use proptest::prelude::*;

/// The collector the histogram replaced: every sample kept, sorted.
struct Oracle(Vec<u64>);

impl Oracle {
    fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<u64>() as f64 / self.0.len() as f64
    }

    fn percentile(&self, p: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    fn histogram(&self, width: u64) -> Vec<(u64, usize)> {
        let Some(&min) = self.0.first() else {
            return Vec::new();
        };
        let lo = min / width * width;
        (lo..=*self.0.last().expect("nonempty"))
            .step_by(width as usize)
            .map(|start| {
                let inside = |&&v: &&u64| v >= start && v - start < width;
                (start, self.0.iter().filter(inside).count())
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `spread` takes the samples from one long run to runs of one.
    #[test]
    fn histogram_equals_a_sorted_sample_list(
        samples in proptest::collection::vec(0u64..400, 0..300),
        spread in 1u64..400,
        width in 1u64..50,
    ) {
        let samples: Vec<u64> = samples.iter().map(|v| v % spread).collect();
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples;
        sorted.sort_unstable();
        let oracle = Oracle(sorted);

        prop_assert_eq!(h.count(), oracle.0.len());
        prop_assert_eq!(h.mean().to_bits(), oracle.mean().to_bits());
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            prop_assert_eq!(h.percentile(p), oracle.percentile(p), "p{}", p);
        }
        prop_assert_eq!(h.min(), oracle.0.first().copied().unwrap_or(0));
        prop_assert_eq!(h.max(), oracle.0.last().copied().unwrap_or(0));
        prop_assert_eq!(h.histogram(width), oracle.histogram(width));
        prop_assert_eq!(h.summary(), HistogramSummary {
            count: oracle.0.len() as u64,
            mean: oracle.mean(),
            min: h.min(),
            max: h.max(),
            p50: oracle.percentile(50.0),
            p95: oracle.percentile(95.0),
            p99: oracle.percentile(99.0),
        });

        let mut w = StateWriter::new();
        h.save_state(&mut w);
        let words = w.into_words();
        let mut distinct = oracle.0.clone();
        distinct.dedup();
        prop_assert_eq!(words.len(), 2 * distinct.len() + 1);
        let mut restored = Histogram::new();
        restored.record(1);
        let mut r = StateReader::new(&words);
        restored.restore_state(&mut r).expect("its own state restores");
        r.finish().expect("and is read to the end");
        prop_assert_eq!(restored, h);
    }
}
