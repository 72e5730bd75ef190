//! The per-simulation telemetry registry.
//!
//! A [`TelemetryRegistry`] is owned by the simulator. At every
//! telemetry interval the sim copies each router's raw [`CounterCell`]
//! in with [`TelemetryRegistry::sync_slot`]; the registry maintains
//! rebased cumulative counts (so a stats reset genuinely zeroes every
//! slot without touching the routers), per-slot deltas since the
//! previous sync (the trace log's food), and decimated network-wide
//! time series per counter. All storage is allocated at construction;
//! the sync path is index arithmetic and fixed-size copies only.

use crate::counters::{CounterBlock, CounterCell};
use crate::metric::RouterCounter;
use crate::series::TimeSeries;
use crate::state::{StateError, StateReader, StateWriter};

/// Rebased counter registry + per-sync deltas + time series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryRegistry {
    /// Raw router readings at the last stats reset; subtracted from
    /// every sync so the registry reads zero after a reset.
    baseline: CounterBlock,
    /// Rebased cumulative counts as of the last sync.
    current: CounterBlock,
    /// Per-slot change between the last two syncs.
    deltas: CounterBlock,
    /// Network-total delta series, one per [`RouterCounter`].
    series: Vec<TimeSeries>,
    /// Cycles between syncs (≥ 1).
    interval: u64,
    /// Number of syncs folded in since the last reset.
    syncs: u64,
    /// Network-total delta accumulated by the current sync pass —
    /// [`TelemetryRegistry::sync_slot`] folds each slot's delta in as
    /// it is computed, so [`TelemetryRegistry::finish_sync`] never
    /// rescans the whole block.
    pending: CounterCell,
}

impl TelemetryRegistry {
    /// A zeroed registry for a network with `routers_per_stage[s]`
    /// routers in stage `s`, synced every `interval` cycles.
    #[must_use]
    pub fn new(routers_per_stage: &[usize], interval: u64) -> Self {
        let block = CounterBlock::new(routers_per_stage);
        TelemetryRegistry {
            baseline: block.clone(),
            current: block.clone(),
            deltas: block,
            series: (0..RouterCounter::COUNT)
                .map(|_| TimeSeries::standard())
                .collect(),
            interval: interval.max(1),
            syncs: 0,
            pending: CounterCell::new(),
        }
    }

    /// Cycles between syncs.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Sets the sync interval (clamped to ≥ 1).
    pub fn set_interval(&mut self, every: u64) {
        self.interval = every.max(1);
    }

    /// Copies one router's raw cumulative cell in, updating the rebased
    /// count and the per-slot delta. Call for every slot, then
    /// [`TelemetryRegistry::finish_sync`] once.
    #[inline]
    pub fn sync_slot(&mut self, s: usize, r: usize, raw: &CounterCell) {
        let i = self.current.slot(s, r);
        let rebased = raw.saturating_delta(&self.baseline.cells()[i]);
        let prev = self.current.cells()[i];
        let delta = rebased.saturating_delta(&prev);
        self.pending = self.pending.plus(&delta);
        *self.deltas.cell_mut(s, r) = delta;
        *self.current.cell_mut(s, r) = rebased;
    }

    /// Folds the just-written deltas into the per-counter time series.
    pub fn finish_sync(&mut self) {
        for c in RouterCounter::ALL {
            self.series[c as usize].push(self.pending.get(c));
        }
        self.pending.reset();
        self.syncs += 1;
    }

    /// Rebased cumulative counts as of the last sync.
    #[must_use]
    pub fn counters(&self) -> &CounterBlock {
        &self.current
    }

    /// Per-slot change between the last two syncs.
    #[must_use]
    pub fn deltas(&self) -> &CounterBlock {
        &self.deltas
    }

    /// The network-total delta series for one counter.
    #[must_use]
    pub fn series(&self, c: RouterCounter) -> &TimeSeries {
        &self.series[c as usize]
    }

    /// Number of syncs since the last reset.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Zeroes every registry slot by folding the current readings into
    /// the baseline. Routers keep their cumulative counters; the next
    /// sync measures only post-reset activity.
    pub fn rebase(&mut self) {
        let stages = self.current.stages();
        for s in 0..stages {
            for r in 0..self.current.routers_in_stage(s) {
                let i = self.current.slot(s, r);
                let cur = self.current.cells()[i];
                let base = self.baseline.cells()[i];
                *self.baseline.cell_mut(s, r) = base.plus(&cur);
            }
        }
        self.current.zero();
        self.deltas.zero();
        for s in &mut self.series {
            s.clear();
        }
        self.syncs = 0;
    }

    /// Appends the whole registry (baseline, rebased counts, deltas,
    /// series, sync bookkeeping) to a checkpoint stream.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.section("telreg");
        w.u64(self.interval);
        w.u64(self.syncs);
        self.pending.save_state(w);
        self.baseline.save_state(w);
        self.current.save_state(w);
        self.deltas.save_state(w);
        w.seq(&self.series, |w, s| s.save_state(w));
    }

    /// Overwrites the registry from a checkpoint stream. The registry
    /// must already have the network shape it was saved with.
    ///
    /// # Errors
    ///
    /// [`StateError`] on shape mismatch or a corrupt stream.
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        r.section("telreg")?;
        self.interval = r.u64()?.max(1);
        self.syncs = r.u64()?;
        self.pending.restore_state(r)?;
        self.baseline.restore_state(r)?;
        self.current.restore_state(r)?;
        self.deltas.restore_state(r)?;
        r.shape(self.series.len(), "series")?;
        for s in &mut self.series {
            s.restore_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(grants: u64, blocks: u64) -> CounterCell {
        let mut c = CounterCell::new();
        c.add(RouterCounter::Grants, grants);
        c.add(RouterCounter::Blocks, blocks);
        c
    }

    #[test]
    fn sync_tracks_cumulative_and_delta() {
        let mut reg = TelemetryRegistry::new(&[1, 2], 4);
        reg.sync_slot(0, 0, &raw(3, 1));
        reg.sync_slot(1, 0, &raw(2, 0));
        reg.sync_slot(1, 1, &raw(0, 0));
        reg.finish_sync();
        assert_eq!(reg.counters().cell(0, 0).get(RouterCounter::Grants), 3);
        assert_eq!(reg.deltas().cell(0, 0).get(RouterCounter::Grants), 3);
        assert_eq!(reg.series(RouterCounter::Grants).samples(), [5]);

        reg.sync_slot(0, 0, &raw(7, 1));
        reg.sync_slot(1, 0, &raw(2, 2));
        reg.sync_slot(1, 1, &raw(1, 0));
        reg.finish_sync();
        assert_eq!(reg.counters().cell(0, 0).get(RouterCounter::Grants), 7);
        assert_eq!(reg.deltas().cell(0, 0).get(RouterCounter::Grants), 4);
        assert_eq!(reg.deltas().cell(1, 0).get(RouterCounter::Blocks), 2);
        assert_eq!(reg.series(RouterCounter::Grants).samples(), [5, 5]);
        assert_eq!(reg.syncs(), 2);
    }

    #[test]
    fn rebase_zeroes_every_slot_but_keeps_measuring() {
        let mut reg = TelemetryRegistry::new(&[2], 1);
        reg.sync_slot(0, 0, &raw(10, 4));
        reg.sync_slot(0, 1, &raw(6, 0));
        reg.finish_sync();

        reg.rebase();
        for cell in reg.counters().cells() {
            assert!(cell.is_zero(), "rebase must zero every registry slot");
        }
        for cell in reg.deltas().cells() {
            assert!(cell.is_zero());
        }
        assert!(reg.series(RouterCounter::Grants).samples().is_empty());
        assert_eq!(reg.syncs(), 0);

        // Routers kept counting from 10/6; the registry sees only the
        // post-reset activity.
        reg.sync_slot(0, 0, &raw(12, 4));
        reg.sync_slot(0, 1, &raw(6, 1));
        reg.finish_sync();
        assert_eq!(reg.counters().cell(0, 0).get(RouterCounter::Grants), 2);
        assert_eq!(reg.counters().cell(0, 1).get(RouterCounter::Blocks), 1);
        assert_eq!(reg.deltas().cell(0, 0).get(RouterCounter::Grants), 2);
    }

    #[test]
    fn interval_is_clamped() {
        let mut reg = TelemetryRegistry::new(&[1], 0);
        assert_eq!(reg.interval(), 1);
        reg.set_interval(0);
        assert_eq!(reg.interval(), 1);
        reg.set_interval(64);
        assert_eq!(reg.interval(), 64);
    }
}
