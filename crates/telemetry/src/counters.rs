//! Flat, zero-alloc counter storage.
//!
//! [`CounterCell`] is one router's worth of counters — a fixed `[u64]`
//! array indexed by [`RouterCounter`] discriminant, `Copy`, and
//! incremented with a single add on the hot path. The bitplane router
//! tick feeds the arbitration counters (`Opens`/`Grants`/`Blocks`) as
//! popcount-derived batch [`CounterCell::add`]s once per tick rather
//! than per-port `inc`s; both paths land in the same cells, so every
//! reading at a tick boundary is exact either way. [`CounterBlock`] is a
//! whole network's worth: one flat `Vec<CounterCell>` slot-indexed by
//! (stage, router), allocated once at construction and never resized,
//! so per-tick synchronization is pure index arithmetic.

use crate::metric::RouterCounter;

/// One router's counters: a fixed array indexed by [`RouterCounter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterCell {
    counts: [u64; RouterCounter::COUNT],
}

impl CounterCell {
    /// A zeroed cell.
    #[must_use]
    pub const fn new() -> Self {
        CounterCell {
            counts: [0; RouterCounter::COUNT],
        }
    }

    /// Increments one counter by 1.
    #[inline]
    pub fn inc(&mut self, c: RouterCounter) {
        self.counts[c as usize] += 1;
    }

    /// Adds `n` to one counter.
    #[inline]
    pub fn add(&mut self, c: RouterCounter, n: u64) {
        self.counts[c as usize] += n;
    }

    /// Reads one counter.
    #[inline]
    #[must_use]
    pub fn get(&self, c: RouterCounter) -> u64 {
        self.counts[c as usize]
    }

    /// The raw counts, in [`RouterCounter::ALL`] slot order.
    #[must_use]
    pub const fn counts(&self) -> &[u64; RouterCounter::COUNT] {
        &self.counts
    }

    /// Element-wise saturating `self - other`; the delta between two
    /// cumulative readings of the same cell.
    #[inline]
    #[must_use]
    pub fn saturating_delta(&self, earlier: &CounterCell) -> CounterCell {
        let mut out = CounterCell::new();
        for i in 0..RouterCounter::COUNT {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }

    /// True when every counter is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&v| v == 0)
    }
}

// Every counter, in slot order, with no count word.
crate::state_walk! {
    impl State for CounterCell => |this, s| {
        let CounterCell { counts } = this;
        s.each(counts, |s, v| s.u64(v))
    }
}

/// A whole network's counters: one [`CounterCell`] per router, stored
/// flat and slot-indexed by (stage, router). Stages may have different
/// router counts (width-cascaded final stages do), so slot lookup goes
/// through a per-stage offset table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterBlock {
    /// `offsets[s]..offsets[s + 1]` is stage `s`'s slot range.
    offsets: Vec<usize>,
    cells: Vec<CounterCell>,
}

impl CounterBlock {
    /// Builds a zeroed block with `routers_per_stage[s]` cells in stage
    /// `s`.
    #[must_use]
    pub fn new(routers_per_stage: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(routers_per_stage.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &n in routers_per_stage {
            total += n;
            offsets.push(total);
        }
        CounterBlock {
            offsets,
            cells: vec![CounterCell::new(); total],
        }
    }

    /// Number of stages.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of routers in stage `s`.
    #[must_use]
    pub fn routers_in_stage(&self, s: usize) -> usize {
        self.offsets[s + 1] - self.offsets[s]
    }

    /// Total number of cells across all stages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the block has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The flat slot index of router `r` in stage `s`.
    #[inline]
    #[must_use]
    pub fn slot(&self, s: usize, r: usize) -> usize {
        debug_assert!(r < self.routers_in_stage(s));
        self.offsets[s] + r
    }

    /// The cell for router `r` in stage `s`.
    #[inline]
    #[must_use]
    pub fn cell(&self, s: usize, r: usize) -> &CounterCell {
        &self.cells[self.slot(s, r)]
    }

    /// Mutable access to the cell for router `r` in stage `s`.
    #[inline]
    pub fn cell_mut(&mut self, s: usize, r: usize) -> &mut CounterCell {
        let i = self.slot(s, r);
        &mut self.cells[i]
    }

    /// Every cell, flat, in slot order.
    #[must_use]
    pub fn cells(&self) -> &[CounterCell] {
        &self.cells
    }

    /// Every cell, flat, in slot order, for overwriting in place (the
    /// shape is fixed).
    pub fn cells_mut(&mut self) -> &mut [CounterCell] {
        &mut self.cells
    }

    /// Sum of one counter across stage `s`.
    #[must_use]
    pub fn stage_total(&self, s: usize, c: RouterCounter) -> u64 {
        self.cells[self.offsets[s]..self.offsets[s + 1]]
            .iter()
            .map(|cell| cell.get(c))
            .sum()
    }

    /// Sum of one counter across the whole network.
    #[must_use]
    pub fn total(&self, c: RouterCounter) -> u64 {
        self.cells.iter().map(|cell| cell.get(c)).sum()
    }

    /// Iterates `((stage, router), &cell)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), &CounterCell)> {
        (0..self.stages()).flat_map(move |s| {
            (0..self.routers_in_stage(s)).map(move |r| ((s, r), self.cell(s, r)))
        })
    }
}

// Every cell, in slot order, into a block of the shape it was saved
// with. The offset table is construction-derived and not written.
crate::state_walk! {
    impl State for CounterBlock => |this, s| {
        let CounterBlock { offsets: _, cells } = this;
        s.lane(cells, "counter cells", |s, cell| s.state(cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_arithmetic_is_elementwise() {
        let mut a = CounterCell::new();
        a.inc(RouterCounter::Grants);
        a.add(RouterCounter::WordsForwarded, 10);
        let mut b = a;
        b.inc(RouterCounter::Grants);
        b.add(RouterCounter::Blocks, 3);

        let d = b.saturating_delta(&a);
        assert_eq!(d.get(RouterCounter::Grants), 1);
        assert_eq!(d.get(RouterCounter::Blocks), 3);
        assert_eq!(d.get(RouterCounter::WordsForwarded), 0);

        // Deltas saturate rather than wrapping when the earlier reading
        // is ahead (a rebased registry against a stale cell).
        assert!(a.saturating_delta(&b).get(RouterCounter::Blocks) == 0);
        assert!(!a.is_zero());
        assert!(a.saturating_delta(&a).is_zero());
    }

    #[test]
    fn block_slots_are_dense_and_ragged_stages_work() {
        let mut b = CounterBlock::new(&[2, 3, 1]);
        assert_eq!(b.stages(), 3);
        assert_eq!(b.len(), 6);
        assert_eq!(b.routers_in_stage(1), 3);
        assert_eq!(b.slot(0, 0), 0);
        assert_eq!(b.slot(1, 0), 2);
        assert_eq!(b.slot(2, 0), 5);

        b.cell_mut(1, 2).add(RouterCounter::Grants, 7);
        b.cell_mut(1, 0).add(RouterCounter::Grants, 1);
        b.cell_mut(2, 0).add(RouterCounter::Grants, 2);
        assert_eq!(b.stage_total(1, RouterCounter::Grants), 8);
        assert_eq!(b.total(RouterCounter::Grants), 10);

        let slots: Vec<(usize, usize)> = b.iter().map(|(sr, _)| sr).collect();
        assert_eq!(slots, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 0)]);

        b.cells_mut().fill(CounterCell::new());
        assert!(b.cells().iter().all(CounterCell::is_zero));
    }
}
