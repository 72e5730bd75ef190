//! Decimated ring-buffer time series.
//!
//! A [`TimeSeries`] holds a bounded number of samples over an unbounded
//! run: pushes accumulate into buckets of `stride` consecutive values,
//! and when the buffer fills, adjacent buckets are pairwise-summed and
//! the stride doubles. The series therefore always covers the *entire*
//! run at progressively coarser resolution, and (for counter deltas)
//! conserves the total: `sum(samples) + pending == sum(pushed)`.

/// A fixed-capacity, self-decimating series of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    capacity: usize,
    stride: u64,
    /// Sum of pushes not yet folded into a full bucket.
    pending_sum: u64,
    /// Number of pushes accumulated toward the current bucket.
    pending_n: u64,
    samples: Vec<u64>,
}

impl TimeSeries {
    /// A series holding at most `capacity` buckets (clamped to ≥ 2 so
    /// decimation always halves into a usable buffer).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        TimeSeries {
            capacity,
            stride: 1,
            pending_sum: 0,
            pending_n: 0,
            samples: Vec::with_capacity(capacity),
        }
    }

    /// The default snapshot resolution: 256 buckets.
    #[must_use]
    pub fn standard() -> Self {
        TimeSeries::new(256)
    }

    /// Pushes one sample, decimating when the buffer is full.
    pub fn push(&mut self, v: u64) {
        self.pending_sum += v;
        self.pending_n += 1;
        if self.pending_n < self.stride {
            return;
        }
        if self.samples.len() == self.capacity {
            // Pairwise-sum adjacent buckets; the stride doubles and the
            // buffer halves, so the series still spans the whole run.
            let halved: Vec<u64> = self.samples.chunks(2).map(|c| c.iter().sum()).collect();
            self.samples = halved;
            self.stride *= 2;
            // The bucket under construction may no longer be full at
            // the new stride.
            if self.pending_n < self.stride {
                return;
            }
        }
        self.samples.push(self.pending_sum);
        self.pending_sum = 0;
        self.pending_n = 0;
    }

    /// Completed buckets, oldest first.
    #[must_use]
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Number of pushes each completed bucket aggregates.
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Maximum number of buckets held before decimation.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of raw pushes folded in so far.
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.samples.len() as u64 * self.stride + self.pending_n
    }

    /// Sum of every value ever pushed (buckets plus the partial one).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.samples.iter().sum::<u64>() + self.pending_sum
    }

    /// Clears the series back to stride 1 without reallocating.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.stride = 1;
        self.pending_sum = 0;
        self.pending_n = 0;
    }
}

// The full decimation state (capacity is construction-fixed and not
// written); restore refuses a zero stride and more buckets than the
// capacity.
crate::state_walk! {
    impl State for TimeSeries => |this, s| {
        let TimeSeries { capacity, stride, pending_sum, pending_n, samples } = this;
        s.u64(stride)?;
        s.check(|| *stride != 0, "stride must be nonzero")?;
        s.u64(pending_sum)?;
        s.u64(pending_n)?;
        s.seq(samples, |s, v| s.u64(v))?;
        s.check(
            || samples.len() <= *capacity,
            format_args!("saved {} buckets, capacity is {capacity}", samples.len()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_one_records_every_push() {
        let mut s = TimeSeries::new(8);
        for v in [3, 1, 4, 1, 5] {
            s.push(v);
        }
        assert_eq!(s.samples(), [3, 1, 4, 1, 5]);
        assert_eq!(s.stride(), 1);
        assert_eq!(s.pushes(), 5);
    }

    #[test]
    fn overflow_decimates_pairwise_and_conserves_the_total() {
        let mut s = TimeSeries::new(4);
        for v in 1..=4u64 {
            s.push(v);
        }
        assert_eq!(s.samples(), [1, 2, 3, 4]);
        // The 5th push overflows: buckets halve to [3, 7], stride 2,
        // and the new push starts a stride-2 bucket.
        s.push(5);
        assert_eq!(s.samples(), [3, 7]);
        assert_eq!(s.stride(), 2);
        s.push(6);
        assert_eq!(s.samples(), [3, 7, 11]);
        assert_eq!(s.total(), 21);
        assert_eq!(s.pushes(), 6);

        // Run it long: the total is always conserved and the buffer
        // never exceeds capacity.
        for v in 7..=1000u64 {
            s.push(v);
        }
        assert_eq!(s.total(), (1..=1000u64).sum::<u64>());
        assert!(s.samples().len() <= 4);
        assert_eq!(s.pushes(), 1000);
    }

    #[test]
    fn capacity_is_clamped_to_two() {
        let mut s = TimeSeries::new(0);
        assert_eq!(s.capacity(), 2);
        for v in 0..100u64 {
            s.push(v);
        }
        assert!(s.samples().len() <= 2);
        assert_eq!(s.total(), (0..100u64).sum::<u64>());
    }

    #[test]
    fn clear_resets_to_stride_one() {
        let mut s = TimeSeries::new(2);
        for v in 0..9u64 {
            s.push(v);
        }
        assert!(s.stride() > 1);
        s.clear();
        assert_eq!(s.stride(), 1);
        assert_eq!(s.pushes(), 0);
        s.push(42);
        assert_eq!(s.samples(), [42]);
    }
}
