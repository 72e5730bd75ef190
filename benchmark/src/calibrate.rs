//! How fast the host is right now: a fixed loop, timed between the
//! measured operations.
//!
//! The shared host's speed is not a constant. Its clock moves with
//! the load (the same loop has read 10% faster while the second core
//! was busy), and for minutes at a time its neighbours slow whatever
//! uses the caches and the memory bus (a walk over 64 MiB has read 45%
//! slower in such a stretch, this loop 39% at the median and 12% at
//! its 10th percentile, a loop that stays in registers 3%). The same
//! binary doing the same work has read 60% slower for a whole run. No
//! statistic over one run's timings removes a factor that every timing
//! of the run carries. A fixed piece of work timed at the same moments
//! carries it too, so the ratio of the two does not, as far as the two
//! are slowed alike: a host-time metric is its operation's CPU time,
//! multiplied by [`REFERENCE_S`] over the CPU time of a pass of the
//! loop in the same run. It reads in seconds on the reference host at
//! its usual speed.
//!
//! The loop is this package's own and calls nothing of the product, so
//! that no change to the simulator can move it.

use crate::host;
use std::hint::black_box;

/// CPU seconds one pass takes on the 2-core reference host at its
/// usual speed: the 10th percentile of a run's passes, as the
/// end-to-end pass takes it, read 0.62-0.66 ms in the runs of a quiet
/// session and 0.69-0.72 ms in a noisy one.
pub const REFERENCE_S: f64 = 0.000_65;

/// Words the loop reads and writes at random: 256 KiB, which stays in
/// a core's second-level cache, as most of what a tick touches does.
const WORDS: usize = 1 << 15;
/// Steps a pass makes.
const STEPS: u32 = 250_000;
/// Passes made between two measured operations. The first finds the
/// loop's words and branch history evicted by the operation before it;
/// the later ones do not.
const PASSES: usize = 3;

fn initial_word(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9)
}

/// The loop, its working set, and the passes made so far.
#[derive(Debug)]
pub struct Calibrator {
    words: Vec<u64>,
    /// CPU seconds of every pass made, in order.
    pub passes: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// A calibrator that has made no pass yet.
    #[must_use]
    pub fn new() -> Self {
        Self {
            words: (0..WORDS).map(initial_word).collect(),
            passes: Vec::new(),
        }
    }

    /// One pass of the loop, always over the same words, so that every
    /// pass is the same work; records and returns the CPU seconds it
    /// took.
    ///
    /// A step is what a tick is made of: an xorshift chain and a
    /// multiply chain that do not depend on each other, a load and a
    /// store at addresses taken from them, and a branch on the loaded
    /// word that no predictor can learn.
    pub fn pass(&mut self) -> f64 {
        for (i, word) in self.words.iter_mut().enumerate() {
            *word = initial_word(i);
        }
        let started = host::thread_cpu_s();
        let (mut a, mut b) = (0x8817_2645_4633_2525_u64, 0x2545_F491_4F6C_DD1D_u64);
        let (mut c, mut d) = (0_u64, 0_u64);
        for _ in 0..STEPS {
            a ^= a << 13;
            a ^= a >> 7;
            a ^= a << 17;
            b = b
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let word = self.words[(b >> 49) as usize];
            if word & 1 == 0 {
                c = c.wrapping_add(word ^ a);
            } else {
                d = d.rotate_left(7) ^ word;
            }
            self.words[(a >> 49) as usize] = c ^ d;
        }
        black_box((c, d));
        let took = host::thread_cpu_s() - started;
        self.passes.push(took);
        took
    }

    /// The passes made before the first measured operation of a phase
    /// and after each.
    pub fn passes_between_operations(&mut self) {
        for _ in 0..PASSES {
            self.pass();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_takes_time_and_is_recorded() {
        let mut c = Calibrator::new();
        assert!(c.passes.is_empty());
        let took = c.pass();
        assert!(took > 0.0);
        assert_eq!(c.passes, [took]);
        c.passes_between_operations();
        assert_eq!(c.passes.len(), 1 + PASSES);
    }

    #[test]
    fn every_pass_is_the_same_work() {
        let mut c = Calibrator::new();
        c.pass();
        let after_one = c.words.clone();
        c.pass();
        assert_eq!(c.words, after_one);
        assert_ne!(c.words, Calibrator::new().words);
    }
}
