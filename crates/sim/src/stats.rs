//! Latency, delivery and retry statistics.
//!
//! [`NetworkStats`] is the one collector of a measured window, for the
//! cycle-accurate machine and the analytic estimator alike.
//! The latency collector is the telemetry crate's
//! [`Histogram`](metro_telemetry::Histogram), re-exported under its
//! historical name: one sample type flows from the simulator through
//! snapshots to `metro report`.

use crate::message::MessageOutcome;

/// An online collector of latency samples with percentile queries —
/// the telemetry histogram under its historical simulator name.
pub type LatencyStats = metro_telemetry::Histogram;

/// Aggregate statistics over a simulation window. Counters are `u64`
/// (platform-independent, matching cycle types and telemetry cells).
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    /// Total-latency samples (request → acknowledgment), the Figure 3
    /// metric.
    pub total_latency: LatencyStats,
    /// Network-latency samples (first injection → acknowledgment).
    pub network_latency: LatencyStats,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages abandoned (max-retry exhaustion).
    pub abandoned: u64,
    /// Total retries of delivered and abandoned messages.
    pub retries: u64,
}

impl NetworkStats {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed outcome in.
    pub fn record(&mut self, outcome: &MessageOutcome) {
        self.total_latency.record(outcome.total_latency());
        self.network_latency.record(outcome.network_latency());
        self.delivered += 1;
        self.retries += outcome.retries as u64;
    }

    /// Records an abandoned message.
    pub fn record_abandoned(&mut self, outcome: &MessageOutcome) {
        self.abandoned += 1;
        self.retries += outcome.retries as u64;
    }

    /// [`retries`](Self::retries) — delivered and abandoned messages'
    /// alike — per delivered message.
    #[must_use]
    pub fn retries_per_message(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.retries as f64 / self.delivered as f64
    }
}

metro_telemetry::state_walk! {
    impl State for NetworkStats => |this, s| {
        let NetworkStats { total_latency, network_latency, delivered, abandoned, retries } = this;
        s.section("netstats")?;
        s.state(total_latency)?;
        s.state(network_latency)?;
        s.u64(delivered)?;
        s.u64(abandoned)?;
        s.u64(retries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = LatencyStats::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            s.record(v);
        }
        assert_eq!(s.percentile(50.0), 50);
        assert_eq!(s.percentile(95.0), 100);
        assert_eq!(s.percentile(100.0), 100);
        assert_eq!(s.min(), 10);
        assert_eq!(s.max(), 100);
        assert!((s.mean() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_cover_the_range() {
        let mut s = LatencyStats::new();
        for v in [10, 11, 25, 26, 26, 40] {
            s.record(v);
        }
        let h = s.histogram(10);
        assert_eq!(h, vec![(10, 2), (20, 3), (30, 0), (40, 1)]);
        assert_eq!(h.iter().map(|(_, c)| c).sum::<usize>(), 6);
    }

    #[test]
    fn histogram_of_empty_is_empty() {
        assert!(LatencyStats::new().histogram(5).is_empty());
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::new();
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn empty_percentiles_are_zero_at_every_rank() {
        let s = LatencyStats::new();
        for p in [0.0, 0.1, 50.0, 99.9, 100.0] {
            assert_eq!(s.percentile(p), 0);
        }
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut s = LatencyStats::new();
        s.record(42);
        for p in [0.0, 1.0, 50.0, 95.0, 100.0] {
            assert_eq!(s.percentile(p), 42, "p{p}");
        }
        assert_eq!(s.mean(), 42.0);
        assert_eq!((s.min(), s.max(), s.count()), (42, 42, 1));
    }

    #[test]
    fn p0_and_p100_clamp_to_min_and_max() {
        let mut s = LatencyStats::new();
        for v in [30, 10, 20] {
            s.record(v);
        }
        // Nearest-rank with rank clamped into 1..=n: p0 → the minimum,
        // p100 → the maximum, never out of bounds.
        assert_eq!(s.percentile(0.0), 10);
        assert_eq!(s.percentile(100.0), 30);
        // A tiny positive p also lands on the first order statistic.
        assert_eq!(s.percentile(0.001), 10);
    }

    #[test]
    fn duplicate_heavy_distribution_percentiles() {
        // 97 copies of 5 and 3 copies of 1000: the heavy value owns
        // every rank up to p97; the tail appears only above it.
        let mut s = LatencyStats::new();
        for _ in 0..97 {
            s.record(5);
        }
        for _ in 0..3 {
            s.record(1000);
        }
        assert_eq!(s.percentile(50.0), 5);
        assert_eq!(s.percentile(90.0), 5);
        assert_eq!(s.percentile(97.0), 5);
        assert_eq!(s.percentile(98.0), 1000);
        assert_eq!(s.percentile(100.0), 1000);
        // Recording after a percentile query re-sorts correctly.
        s.record(1);
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(s.percentile(100.0), 1000);
    }

    #[test]
    fn network_stats_fold_outcomes() {
        use crate::message::{FailureKind, MessageOutcome};
        let mut n = NetworkStats::new();
        let o = MessageOutcome {
            src: 0,
            dest: 1,
            requested_at: 0,
            first_injection_at: 2,
            completed_at: 30,
            retries: 2,
            failures: vec![
                FailureKind::FastReclaimed,
                FailureKind::Blocked { stage: 1 },
            ],
            payload_words: 20,
            payload_delivered: vec![],
            reply_received: vec![],
            status: crate::message::DeliveryStatus::Delivered,
        };
        n.record(&o);
        assert_eq!(n.delivered, 1);
        assert_eq!(n.retries, 2);
        assert_eq!(n.retries_per_message(), 2.0);
    }
}
