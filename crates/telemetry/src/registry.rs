//! The per-simulation telemetry registry.
//!
//! The routers own their counters: each `metro_core::Router` holds the
//! one cumulative [`CounterCell`] it increments. A
//! [`TelemetryRegistry`], owned by the simulator, is only what turns
//! those live cells into a report — the readings at the last stats
//! reset (the *baseline*; a snapshot shows live − baseline) — plus the
//! sync cadence and count. Every method that reads counts takes the
//! live cells, in slot order (stage-major, router-minor); the registry
//! never keeps a copy of them.

use crate::counters::{CounterBlock, CounterCell};

/// A reset baseline plus the sync cadence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryRegistry {
    /// Raw router readings at the last stats reset.
    baseline: CounterBlock,
    /// Cycles between syncs (≥ 1).
    interval: u64,
    /// Number of syncs since the last reset.
    syncs: u64,
}

impl TelemetryRegistry {
    /// A zeroed registry for a network with `routers_per_stage[s]`
    /// routers in stage `s`, synced every `interval` cycles.
    #[must_use]
    pub fn new(routers_per_stage: &[usize], interval: u64) -> Self {
        TelemetryRegistry {
            baseline: CounterBlock::new(routers_per_stage),
            interval: interval.max(1),
            syncs: 0,
        }
    }

    /// Cycles between syncs.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Counts one sync.
    pub fn sync(&mut self) {
        self.syncs += 1;
    }

    /// Per-router counts since the last reset: live − baseline.
    #[must_use]
    pub fn counters<'a>(&self, cells: impl IntoIterator<Item = &'a CounterCell>) -> CounterBlock {
        let mut since = self.baseline.clone();
        for (slot, live) in since.cells_mut().iter_mut().zip(cells) {
            *slot = live.saturating_delta(slot);
        }
        since
    }

    /// Number of syncs since the last reset.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Reset means now: the live readings become the baseline and the
    /// sync count starts over. Routers keep their cumulative counters;
    /// everything read afterwards measures post-reset activity only,
    /// whatever the sync interval.
    pub fn rebase<'a>(&mut self, cells: impl IntoIterator<Item = &'a CounterCell>) {
        for (slot, live) in self.baseline.cells_mut().iter_mut().zip(cells) {
            *slot = *live;
        }
        self.syncs = 0;
    }
}

// The sync bookkeeping and the baseline, into a registry of the network
// shape it was saved with. `new` clamps the interval to ≥ 1, so a saved
// 0 is refused rather than repaired.
crate::state_walk! {
    impl State for TelemetryRegistry => |this, s| {
        let TelemetryRegistry { baseline, interval, syncs } = this;
        s.section("telreg")?;
        s.u64(interval)?;
        s.check(|| *interval >= 1, "a sync interval of 0 cycles")?;
        s.u64(syncs)?;
        s.state(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::RouterCounter;

    fn raw(grants: u64, blocks: u64) -> CounterCell {
        let mut c = CounterCell::new();
        c.add(RouterCounter::Grants, grants);
        c.add(RouterCounter::Blocks, blocks);
        c
    }

    #[test]
    fn sync_counts_and_counters_read_live_cells() {
        let mut reg = TelemetryRegistry::new(&[1, 2], 4);
        reg.sync();
        reg.sync();
        assert_eq!(reg.syncs(), 2);
        let live = [raw(7, 1), raw(2, 2), raw(1, 0)];
        let counters = reg.counters(&live);
        assert_eq!(counters.cell(0, 0).get(RouterCounter::Grants), 7);
        assert_eq!(counters.cell(1, 0).get(RouterCounter::Blocks), 2);
    }

    #[test]
    fn rebase_zeroes_every_slot_but_keeps_measuring() {
        let mut reg = TelemetryRegistry::new(&[2], 1);
        let at_reset = [raw(10, 4), raw(6, 0)];
        reg.sync();

        reg.rebase(&at_reset);
        for cell in reg.counters(&at_reset).cells() {
            assert!(cell.is_zero(), "rebase must zero every registry slot");
        }
        assert_eq!(reg.syncs(), 0);

        // Routers kept counting from 10/6; the registry sees only the
        // post-reset activity.
        let live = [raw(12, 4), raw(6, 1)];
        let counters = reg.counters(&live);
        assert_eq!(counters.cell(0, 0).get(RouterCounter::Grants), 2);
        assert_eq!(counters.cell(0, 1).get(RouterCounter::Blocks), 1);
    }

    #[test]
    fn interval_is_clamped() {
        assert_eq!(TelemetryRegistry::new(&[1], 0).interval(), 1);
        assert_eq!(TelemetryRegistry::new(&[1], 64).interval(), 64);
    }

    /// No registry syncs every 0 cycles, so a saved 0 is refused at its
    /// word: a restored machine re-saves only words it read.
    #[test]
    fn a_saved_interval_of_zero_is_refused() {
        use crate::state::{State, StateError, StateReader, StateWriter};
        let reg = TelemetryRegistry::new(&[1, 2], 4);
        let mut w = StateWriter::new();
        reg.save_state(&mut w);
        let mut words = w.into_words();
        // The tag, then the interval.
        assert_eq!(words[1], 4);
        let mut back = TelemetryRegistry::new(&[1, 2], 4);
        back.restore_state(&mut StateReader::new(&words)).unwrap();
        assert_eq!(back, reg);
        words[1] = 0;
        match back.restore_state(&mut StateReader::new(&words)) {
            Err(StateError::BadValue { section, at, .. }) => {
                assert_eq!((section.as_str(), at), ("telreg", 1));
            }
            other => panic!("a zero interval restored: {other:?}"),
        }
    }
}
