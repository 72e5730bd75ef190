//! Router width cascading.
//!
//! "To allow wide routers to be built from routing components with
//! narrow datapaths, METRO provides features to facilitate *cascading*
//! routers" (paper §5.1). `c` routers run in parallel, each carrying a
//! `w`-bit slice of a `c·w`-bit logical channel. Two hooks keep the
//! slices consistent:
//!
//! 1. **Shared randomness** — all routers of a cascade receive identical
//!    random bits, so identical connection requests produce identical
//!    allocations.
//! 2. **Wired-AND `IN-USE` pull-up** — each backward port exposes an
//!    IN-USE signal; the cascade wires the signals together, and any
//!    disagreement (necessarily a fault) shuts the connection down on
//!    every router so the fault is contained.
//!
//! The route header is **replicated on every slice** (which is why
//! Table 4 multiplies `hbits` by the cascade factor `c`), so all slices
//! decode identical connection requests; only the payload is split
//! across the slices.

use crate::config::RouterConfig;
use crate::params::ArchParams;
use crate::rng::RandomSource;
use crate::router::{BwdIn, FwdIn, Router, TickOutput};
use crate::word::Word;
use core::fmt;

/// An inconsistency detected by the cascade's wired-AND IN-USE check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeError {
    /// The backward port whose IN-USE signals disagreed.
    pub backward_port: usize,
    /// Which slices asserted IN-USE.
    pub asserting_slices: Vec<usize>,
}

impl fmt::Display for CascadeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cascade IN-USE disagreement on backward port {} (asserted by slices {:?})",
            self.backward_port, self.asserting_slices
        )
    }
}

impl std::error::Error for CascadeError {}

/// A group of `c` width-cascaded METRO routers acting as one logical
/// router with a `c·w`-bit datapath.
///
/// # Examples
///
/// ```
/// use metro_core::{ArchParams, CascadeGroup, RouterConfig, Word, FwdIn, BwdIn};
///
/// let params = ArchParams::metrojr();
/// let config = RouterConfig::new(&params).with_dilation(2).build().unwrap();
/// // Two cascaded METROJR parts: an 8-bit logical datapath from 4-bit slices.
/// let mut cascade = CascadeGroup::new(params, config, 2, 7).unwrap();
/// assert_eq!(cascade.logical_width(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct CascadeGroup {
    slices: Vec<Router>,
    params: ArchParams,
    faults: Vec<CascadeError>,
}

impl CascadeGroup {
    /// Builds a cascade of `c >= 1` identical routers sharing one random
    /// stream seeded from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates any router construction error.
    pub fn new(
        params: ArchParams,
        config: RouterConfig,
        c: usize,
        seed: u64,
    ) -> Result<Self, crate::error::ConfigError> {
        assert!(c >= 1, "a cascade needs at least one slice");
        let shared = RandomSource::new(seed);
        let config = std::sync::Arc::new(config);
        let mut slices = Vec::with_capacity(c);
        for _ in 0..c {
            let mut r = Router::new(params, std::sync::Arc::clone(&config), seed)?;
            // Identical stream state on every slice: shared randomness.
            r.set_random_source(shared.clone());
            slices.push(r);
        }
        Ok(Self {
            slices,
            params,
            faults: Vec::new(),
        })
    }

    /// Number of cascaded slices, `c`.
    #[must_use]
    pub fn width_factor(&self) -> usize {
        self.slices.len()
    }

    /// The logical channel width, `c · w` bits.
    #[must_use]
    pub fn logical_width(&self) -> usize {
        self.slices.len() * self.params.width()
    }

    /// Access to an individual slice (for fault injection in tests and
    /// for the scan subsystem, which addresses physical components).
    #[must_use]
    pub fn slice(&self, k: usize) -> &Router {
        &self.slices[k]
    }

    /// IN-USE disagreements detected so far.
    #[must_use]
    pub fn faults(&self) -> &[CascadeError] {
        &self.faults
    }

    /// Advances every slice one clock cycle with per-slice inputs, then
    /// applies the wired-AND IN-USE consistency check: if any backward
    /// port's IN-USE signals disagree across slices, the connection is
    /// shut down on all of them (paper §5.1).
    ///
    /// Returns the per-slice outputs.
    ///
    /// # Panics
    ///
    /// Panics if the input slices do not match the cascade width.
    pub fn tick(&mut self, fwd_in: &[FwdIn], bwd_in: &[BwdIn]) -> Vec<TickOutput> {
        assert_eq!(fwd_in.len(), self.slices.len(), "one FwdIn per slice");
        assert_eq!(bwd_in.len(), self.slices.len(), "one BwdIn per slice");
        let outs: Vec<TickOutput> = self
            .slices
            .iter_mut()
            .zip(fwd_in.iter().zip(bwd_in))
            .map(|(r, (f, b))| r.tick(f, b))
            .collect();
        self.check_in_use();
        outs
    }

    /// Convenience for the common fault-free case: identical control
    /// flow on every slice, so one logical input is replicated.
    pub fn tick_replicated(&mut self, fwd_in: &FwdIn, bwd_in: &BwdIn) -> Vec<TickOutput> {
        let f: Vec<FwdIn> = (0..self.slices.len()).map(|_| fwd_in.clone()).collect();
        let b: Vec<BwdIn> = (0..self.slices.len()).map(|_| bwd_in.clone()).collect();
        self.tick(&f, &b)
    }

    #[allow(clippy::needless_range_loop)] // index used for error reporting
    fn check_in_use(&mut self) {
        let o = self.params.backward_ports();
        let vectors: Vec<Vec<bool>> = self.slices.iter().map(Router::in_use_vector).collect();
        for b in 0..o {
            let asserting: Vec<usize> = (0..self.slices.len()).filter(|&k| vectors[k][b]).collect();
            if !asserting.is_empty() && asserting.len() != self.slices.len() {
                // Disagreement: necessarily an error — contain it by
                // shutting the connection down on every slice.
                for r in &mut self.slices {
                    r.force_release(b);
                }
                self.faults.push(CascadeError {
                    backward_port: b,
                    asserting_slices: asserting,
                });
            }
        }
    }
}

/// Splits a wide logical data value into `c` per-slice `w`-bit words,
/// slice 0 carrying the most significant bits (where route digits live).
#[must_use]
pub fn split_word(value: u64, w: usize, c: usize) -> Vec<Word> {
    (0..c)
        .map(|k| {
            let shift = (c - 1 - k) * w;
            let mask = if w >= 16 { 0xFFFF } else { (1u64 << w) - 1 };
            Word::Data(((value >> shift) & mask) as u16)
        })
        .collect()
}

/// Reassembles per-slice words into the wide logical value; `None` if
/// any slice word is not data.
#[must_use]
pub fn join_words(words: &[Word], w: usize) -> Option<u64> {
    let mut value = 0u64;
    for word in words {
        value = (value << w) | u64::from(word.data()?);
    }
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cascade(c: usize) -> CascadeGroup {
        let params = ArchParams::metrojr();
        let config = RouterConfig::new(&params)
            .with_dilation(2)
            .with_swallow_all(true)
            .build()
            .unwrap();
        CascadeGroup::new(params, config, c, 1234).unwrap()
    }

    #[test]
    fn logical_width_scales_with_slices() {
        assert_eq!(cascade(1).logical_width(), 4);
        assert_eq!(cascade(2).logical_width(), 8);
        assert_eq!(cascade(4).logical_width(), 16);
    }

    #[test]
    fn slices_allocate_identically_under_shared_randomness() {
        let mut g = cascade(4);
        // Open connections on two forward ports simultaneously; all
        // slices see the same requests.
        let fwd = FwdIn::idle(4)
            .with(0, Word::Data(0b1000))
            .with(1, Word::Data(0b1000));
        g.tick_replicated(&fwd, &BwdIn::idle(4));
        let reference = g.slice(0).in_use_vector();
        for k in 1..4 {
            assert_eq!(g.slice(k).in_use_vector(), reference, "slice {k} diverged");
        }
        assert!(g.faults().is_empty());
        // Both requests landed in direction-1 ports (2..4).
        assert_eq!(reference, vec![false, false, true, true]);
    }

    #[test]
    fn identical_over_many_random_cycles() {
        let mut g = cascade(2);
        let mut rng = RandomSource::new(5);
        for _ in 0..200 {
            let mut fwd = FwdIn::idle(4);
            for f in 0..4 {
                if rng.bit() {
                    fwd = fwd.with(f, Word::Data(rng.bits(4) as u16));
                } else {
                    fwd = fwd.with(f, Word::Empty);
                }
            }
            g.tick_replicated(&fwd, &BwdIn::idle(4));
            assert_eq!(g.slice(0).in_use_vector(), g.slice(1).in_use_vector());
        }
        assert!(g.faults().is_empty());
    }

    #[test]
    fn corrupted_slice_header_is_detected_and_contained() {
        let mut g = cascade(2);
        // Slice 0 sees direction 1; slice 1 sees a corrupted header
        // requesting direction 0 — a fault in flight.
        let f0 = FwdIn::idle(4).with(0, Word::Data(0b1000));
        let f1 = FwdIn::idle(4).with(0, Word::Data(0b0000));
        g.tick(&[f0, f1], &[BwdIn::idle(4), BwdIn::idle(4)]);
        assert!(!g.faults().is_empty(), "wired-AND must catch disagreement");
        // Containment: every slice's connection was shut down.
        for k in 0..2 {
            assert!(
                g.slice(k).in_use_vector().iter().all(|&u| !u),
                "slice {k} still holds a connection"
            );
        }
    }

    #[test]
    fn split_join_roundtrip() {
        let words = split_word(0xBEEF, 4, 4);
        assert_eq!(
            words,
            vec![
                Word::Data(0xB),
                Word::Data(0xE),
                Word::Data(0xE),
                Word::Data(0xF)
            ]
        );
        assert_eq!(join_words(&words, 4), Some(0xBEEF));
    }

    #[test]
    fn join_fails_on_control_word() {
        assert_eq!(join_words(&[Word::Data(1), Word::Turn], 4), None);
    }

    #[test]
    fn cascade_error_display_names_port_and_slices() {
        let e = CascadeError {
            backward_port: 3,
            asserting_slices: vec![0],
        };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains("[0]"));
    }
}
