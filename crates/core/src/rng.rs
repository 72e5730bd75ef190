//! Shared-randomness bit streams.
//!
//! METRO's stochastic path selection draws on random bit streams. To make
//! width cascading work, "the routers receive their random bits from off
//! chip … As long as the connection requests and shared random bits are
//! identical for the set of cascaded routers, the cascaded routers will
//! allocate identically" (paper §5.1). To avoid extra components, each
//! router also *generates* one random output bit stream, and consumes
//! `ri >= 1` input streams.
//!
//! This model uses a seeded xorshift64\* generator per stream: cheap,
//! deterministic, and adequate for selection among a handful of
//! equivalent ports. Determinism is a feature — an entire network
//! simulation replays exactly from its seed.

/// A deterministic source of random bits, standing in for the `ri`
/// random input streams wired into a METRO router.
///
/// Cloning the source clones its state: two clones produce identical
/// streams, which is exactly how width cascading shares randomness
/// across routers (see [`CascadeGroup`](crate::CascadeGroup)).
///
/// # Examples
///
/// ```
/// use metro_core::RandomSource;
///
/// let mut a = RandomSource::new(42);
/// let mut b = a.clone();
/// assert_eq!(a.bits(8), b.bits(8)); // shared randomness
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RandomSource {
    state: u64,
}

impl RandomSource {
    /// Creates a stream seeded with `seed`. A zero seed is remapped to a
    /// fixed nonzero constant (xorshift has a zero fixed point).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Derives an independent stream for subcomponent `index`, e.g. one
    /// per router of a network built from a single master seed.
    #[must_use]
    pub fn derive(&self, index: u64) -> Self {
        // SplitMix-style mix of the base state and index.
        let mut z = self
            .state
            .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self::new(z ^ (z >> 31))
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Draws the next `n <= 64` random bits as an integer.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn bits(&mut self, n: u32) -> u64 {
        assert!(n <= 64, "cannot draw more than 64 bits at once");
        if n == 0 {
            return 0;
        }
        self.next_u64() >> (64 - n)
    }

    /// Draws a uniformly distributed index in `0..bound`.
    ///
    /// Hardware would use a handful of shared random bits; the model uses
    /// rejection sampling for exact uniformity (the distinction is
    /// invisible to allocation behaviour, and both are deterministic
    /// functions of the stream).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "cannot draw an index from an empty range");
        if bound == 1 {
            return 0;
        }
        let bound = bound as u64;
        // Rejection sampling over the smallest covering power of two.
        let bits = 64 - (bound - 1).leading_zeros();
        loop {
            let v = self.bits(bits);
            if v < bound {
                return v as usize;
            }
        }
    }

    /// Draws a single random bit — the "one random output bit stream"
    /// every METRO component contributes (paper §5.1).
    pub fn bit(&mut self) -> bool {
        self.bits(1) == 1
    }
}

// The raw generator state, so a restored stream continues exactly where
// the saved one left off. A zero state (which a running source never
// reaches) is remapped as in `new` rather than poisoning the stream.
metro_telemetry::state_walk! {
    impl State for RandomSource => |this, s| {
        let RandomSource { state } = this;
        s.u64(state)?;
        s.on_restore(state, |state| *state = RandomSource::new(*state).state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = RandomSource::new(7);
        let mut b = RandomSource::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = RandomSource::new(1);
        let mut b = RandomSource::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut z = RandomSource::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn index_is_in_bounds() {
        let mut r = RandomSource::new(99);
        for bound in 1..=9 {
            for _ in 0..200 {
                assert!(r.index(bound) < bound);
            }
        }
    }

    #[test]
    fn index_distribution_is_roughly_uniform() {
        let mut r = RandomSource::new(1234);
        let mut counts = [0usize; 4];
        let draws = 40_000;
        for _ in 0..draws {
            counts[r.index(4)] += 1;
        }
        for &c in &counts {
            let expected = draws / 4;
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 10) as u64,
                "count {c} too far from expected {expected}"
            );
        }
    }

    #[test]
    fn derive_produces_distinct_streams() {
        let base = RandomSource::new(5);
        let mut a = base.derive(0);
        let mut b = base.derive(1);
        assert_ne!(a.next_u64(), b.next_u64());
        // And deterministic:
        let mut a2 = RandomSource::new(5).derive(0);
        assert_eq!(RandomSource::new(5).derive(0), base.derive(0));
        let _ = a2.next_u64();
    }

    #[test]
    fn clone_shares_the_stream() {
        let mut a = RandomSource::new(11);
        let mut b = a.clone();
        for _ in 0..32 {
            assert_eq!(a.bit(), b.bit());
        }
    }

    #[test]
    fn bits_zero_is_zero() {
        let mut r = RandomSource::new(3);
        assert_eq!(r.bits(0), 0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_zero_bound_panics() {
        RandomSource::new(3).index(0);
    }
}
